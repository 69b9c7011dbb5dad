//! One OPC arm: ten microrings, two waveguides, one balanced
//! photodetector.
//!
//! The arm is the unit of computation (paper Fig. 5(c)): the nine weights
//! of a 3×3 kernel occupy nine rings (the tenth is a spare / bias slot),
//! each ring weighting one WDM channel. Positive-sign rings sit on one
//! waveguide, negative-sign rings on the other; the BPD at the arm's end
//! subtracts the two accumulated powers, so the photocurrent *is* the
//! signed dot product.
//!
//! # Noise: one draw per detector rail
//!
//! Each ring's channel carries VCSEL RIN and ring drift: tap `i`
//! delivers `P·a·(1 + σv·g)·t′·gain` with `t′ = clamp(m·(1 + σm·h), 0,
//! 1)` and independent standard normals `g`, `h`
//! ([`NoiseConfig`]). The detector sees only the two rail sums, so the
//! MAC draws those instead of the rings: every tap carries a mean
//! coefficient `α = gain·E[t′]` and a variance coefficient
//! `β = gain²·((1 + σv²)·E[t′²] − E[t′]²)`, with the clamp's
//! truncated-normal moments in closed form, and each rail evaluates to
//! `max(0, P·(Σa·α + √(Σa²·β)·G))`. That is the per-ring model's exact
//! rail mean and variance (a unit test checks both, and the rail
//! covariance, against the per-ring model over 10⁶ windows), for three
//! Gaussian draws per MAC: one per rail and one for the detector.
//!
//! Counters are per MAC: the positive rail draws at `base`, the
//! negative rail at `base + 1` and the detector at `base + 2`
//! ([`COUNTER_STRIDE`]), whatever the window length. A rail with zero
//! variance — no loaded taps, or the noiseless config — skips its draw,
//! which changes no bit: its draw would be multiplied by `√0`.
//!
//! # Performance notes: the lane-accumulator determinism contract
//!
//! The module has three MAC evaluations: [`RingTable::fused_mac`], the
//! fast path every engine runs, [`Arm::mac`], the general
//! [`NoiseModel`] evaluation, and [`Arm::mac_reference`], the
//! pre-optimisation port. Each folds four rail-moment accumulators,
//! `Σa·α` and `Σa²·β` for each rail, into **[`LANES`] fixed lanes**
//! each (element `i` lands in lane `i mod LANES`) and reduces them
//! through one canonical tree:
//! `(l0 + l2) + (l1 + l3)`. Floating-point addition is not associative,
//! so the fold order is part of the wire-level bit-identity guarantee:
//! the parallel, sequential, batched, sharded, TCP and serving engines
//! all replay this exact tree and therefore the exact same bits. Do not
//! "simplify" the fold back to a single accumulator, and never let a
//! host vector width dictate a different lane count — [`LANES`] is a
//! contract constant, not a tuning knob.
//!
//! The coefficients are computed where weights are staged — per code
//! and sign by [`RingTable::new`] — from the [`NoiseConfig`] the caller
//! passes in. The arm paths compute them on the fly through the same
//! functions, so every path produces the same bits.
//!
//! # Where the time goes
//!
//! A 9-tap window costs nine multiply-adds into the mean lanes, nine
//! into the variance lanes, two square roots and three ziggurat draws.
//! Drawing per rail is the point of the model: two draws per ring made
//! the draws about two thirds of the MAC drain's host time. The fold
//! walks [`LANES`] taps at a time, so its accumulators stay in
//! registers and the four lanes run as independent add chains. It adds
//! every tap to both rails (its coefficients on its own rail, `+0.0`
//! on the other), which the compiler packs into one 128-bit multiply
//! and one add per moment; no vector kernel is involved. So nothing in
//! a MAC branches on a weight's sign. Such a branch is predictable in
//! the convolution drain, where every window of a pass repeats its
//! arm's sign pattern, but a dense row's chunks carry random signs,
//! which a branch mispredicts about half the time.
//!
//! [`RingTable::taps`] forms a chunk's taps: per tap, the unit-gain
//! coefficients of its staged byte scaled by a gain looked up by its
//! neighbours' codes, with nothing checked. A convolution pass forms
//! each arm's taps once and runs every window of the pass against
//! them; a dense chunk forms its taps right before its one MAC.
//!
//! Measured on a 2-vCPU Intel Xeon host, paper noise:
//! `perf_json`'s `mac_ns_per_ring` read 3.6–7.8 ns over eight runs
//! (11.4–22.9 ns over three with per-ring draws). oisabench's traced
//! run (`--trace 1`, seed 1, 20 s) times the same paths:
//! `optics.host_ns_per_ring_mac` read 3.5 ns on `camera_stream`'s
//! 128² conv drain and 5.1 ns on `fleet_program`'s, and
//! `mlp.host_ns_per_mac` 20.2 ns on `fleet_program`'s one-frame dense
//! calls, each of which restages its matrix.

use oisa_device::mr::{Microring, MrDesign, TuningOutcome};
use oisa_device::noise::{NoiseConfig, NoiseModel, NoiseStream};
use oisa_device::photodiode::{BalancedPhotodetector, PhotodiodeParams};
use oisa_device::waveguide::{ChannelPlan, LossBudget, OpticalPath};
use oisa_units::{Joule, Meter, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::weights::{MappedWeight, WeightMapper};
use crate::{OpticsError, Result};

/// Number of microrings per arm (paper §III-B).
pub const RINGS_PER_ARM: usize = 10;

/// Counters one MAC consumes on a noise stream: the positive rail's
/// draw at `base`, the negative rail's at `base + 1` and the
/// detector's at `base + 2`, for every window length.
pub const COUNTER_STRIDE: u64 = 3;

/// Arm configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmConfig {
    /// Ring design used for every MR in the arm.
    pub ring: MrDesign,
    /// Detector at the arm output.
    pub detector: PhotodiodeParams,
    /// Loss budget for the waveguide run.
    pub losses: LossBudget,
    /// Physical arm length (sets propagation loss and time of flight).
    pub length: Meter,
    /// Per-channel optical input power at full activation.
    pub channel_power: Watt,
    /// Model inter-channel crosstalk: each ring's Lorentzian tail also
    /// attenuates its spectral neighbours. Costs one extra transmission
    /// evaluation per adjacent-channel pair.
    pub crosstalk: bool,
}

impl ArmConfig {
    /// Paper defaults: paper ring + detector + losses over a 500 µm arm
    /// with 200 µW per channel; crosstalk modelling on.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ring: MrDesign::paper_default(),
            detector: PhotodiodeParams::paper_default(),
            losses: LossBudget::paper_default(),
            length: Meter::from_micro(500.0),
            channel_power: Watt::from_micro(200.0),
            crosstalk: true,
        }
    }

    /// Paper defaults with crosstalk disabled (ideal-isolation ablation).
    #[must_use]
    pub fn no_crosstalk() -> Self {
        Self {
            crosstalk: false,
            ..Self::paper_default()
        }
    }
}

/// Result of one arm-level MAC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacResult {
    /// The signed dot product, in weight·activation units (loss-
    /// normalised).
    pub value: f64,
    /// BPD difference current before normalisation, amperes.
    pub raw_current: f64,
    /// Optical + detection latency of the evaluation.
    pub latency: Second,
    /// Optical energy consumed by this arm for one symbol.
    pub optical_energy: Joule,
}

/// A single arm with its loaded weights.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    config: ArmConfig,
    rings: Vec<Microring>,
    weights: Vec<MappedWeight>,
    plan: ChannelPlan,
    detector: BalancedPhotodetector,
    /// Cached waveguide transmission from input to detector.
    path_transmission: f64,
    /// Total tuning energy spent loading the current weights.
    tuning_energy: Joule,
    /// Per-ring crosstalk × waveguide gain, precomputed at
    /// [`Arm::load_weights`] time (it depends only on the loaded weights
    /// and the channel plan, never on activations).
    ring_gain: Vec<f64>,
    /// Full-scale photocurrent of one channel at weight and activation 1
    /// (`P_in · T_path · R`), precomputed at construction.
    per_channel_full: f64,
    /// Optical dwell per symbol: time of flight plus detector settling.
    dwell: Second,
}

impl Arm {
    /// Builds an idle arm with all rings parked (weight 0).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::Device`] when a sub-device rejects its
    /// parameters.
    pub fn new(config: ArmConfig) -> Result<Self> {
        // Spread the ten channels across the ring's free spectral range:
        // the spacing must exceed the worst-case weight detuning
        // (≈ 0.67 nm) plus guard band, or a fully-detuned ring parks on
        // its neighbour's channel.
        let plan = ChannelPlan::new(
            config.ring.resonance_wavelength,
            Meter::new(config.ring.free_spectral_range().get() / RINGS_PER_ARM as f64),
            RINGS_PER_ARM as u16,
        )?;
        let rings = (0..RINGS_PER_ARM)
            .map(|_| Microring::new(config.ring))
            .collect::<oisa_device::Result<Vec<_>>>()?;
        let detector = BalancedPhotodetector::new(config.detector)?;
        let path = OpticalPath::new(config.losses)?
            .with_length(config.length)
            .with_ring_passes((RINGS_PER_ARM - 1) as u32)
            .with_splitters(1);
        let path_transmission = path.transmission();
        let per_channel_full =
            config.channel_power.get() * path_transmission * config.detector.responsivity_a_per_w;
        let velocity = oisa_units::SPEED_OF_LIGHT_M_PER_S / config.ring.group_index;
        let dwell = Second::new(config.length.get() / velocity) + detector.settling_time();
        Ok(Self {
            config,
            rings,
            weights: Vec::new(),
            plan,
            detector,
            path_transmission,
            tuning_energy: Joule::ZERO,
            ring_gain: Vec::new(),
            per_channel_full,
            dwell,
        })
    }

    /// Arm configuration.
    #[must_use]
    pub fn config(&self) -> &ArmConfig {
        &self.config
    }

    /// Currently loaded weights.
    #[must_use]
    pub fn weights(&self) -> &[MappedWeight] {
        &self.weights
    }

    /// Tuning energy spent by the last [`Arm::load_weights`].
    #[must_use]
    pub fn tuning_energy(&self) -> Joule {
        self.tuning_energy
    }

    /// Static heater power holding the current weights.
    #[must_use]
    pub fn holding_power(&self) -> Watt {
        self.rings.iter().map(Microring::holding_power).sum()
    }

    /// Quantises `weights` through `mapper` and maps them onto the rings.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::CapacityExceeded`] when more than
    /// [`RINGS_PER_ARM`] weights are supplied, or a quantisation error.
    pub fn load_weights(&mut self, weights: &[f64], mapper: &WeightMapper) -> Result<()> {
        if weights.len() > RINGS_PER_ARM {
            return Err(OpticsError::CapacityExceeded {
                capacity: RINGS_PER_ARM,
                requested: weights.len(),
            });
        }
        let mapped = mapper.quantize_all(weights)?;
        let mut energy = Joule::ZERO;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            let magnitude = mapped.get(i).map_or(0.0, |m| m.magnitude);
            energy += tune_to_magnitude(ring, magnitude)?.energy;
        }
        self.weights = mapped;
        self.tuning_energy = energy;
        // Crosstalk and waveguide attenuation depend only on the loaded
        // weights (ring detunings) and the channel spacing, so fold them
        // into one per-ring gain here instead of re-evaluating two
        // Lorentzian tails per channel on every MAC.
        let spacing = self.plan.spacing();
        let n = self.weights.len();
        let crosstalk = self.config.crosstalk;
        let xt = |j: usize, offset: Meter| self.rings[j].crosstalk_transmission(offset);
        self.ring_gain = (0..n)
            .map(|i| {
                tap_gain(
                    self.path_transmission,
                    (crosstalk && i > 0).then(|| xt(i - 1, spacing)),
                    (crosstalk && i + 1 < n).then(|| xt(i + 1, -spacing)),
                )
            })
            .collect();
        Ok(())
    }

    /// Evaluates the signed dot product of the loaded weights with
    /// `activations` (normalised optical amplitudes in `[0, 1]`, one per
    /// loaded weight).
    ///
    /// The chain models: VCSEL RIN and ring drift on each channel,
    /// applied through each rail's closed-form moments (module docs) →
    /// waveguide losses → accumulation on the +/− waveguides → BPD
    /// subtraction with detector noise → loss-normalised signed result.
    /// Crosstalk and waveguide attenuation come from the per-ring gains
    /// precomputed at [`Arm::load_weights`] time; the rail coefficients
    /// are computed on the fly from `noise`'s [`NoiseConfig`].
    ///
    /// Both rail draws are taken on every call, even from a rail with
    /// zero variance, so a [`oisa_device::noise::StreamCursor`] consumes
    /// the counters 0, 1 and 2 the fused path addresses explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when activation count
    /// exceeds the loaded weight count or values leave `[0, 1]`; all
    /// activations are validated up front, so the error names the first
    /// offending index and no partial evaluation happens.
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        self.validate_activations(activations)?;
        let mut taps = [RailTap::PARKED; RINGS_PER_ARM];
        for ((tap, w), &gain) in taps.iter_mut().zip(&self.weights).zip(&self.ring_gain) {
            *tap =
                RailTap::unit(ring_moments(w.magnitude, noise.config()), w.negative).scaled(gain);
        }
        let rails = RailSums::fold(&taps[..self.weights.len()], activations);
        let (g_pos, g_neg) = (noise.standard_normal(), noise.standard_normal());
        let (p_pos, p_neg) = rails.powers(self.config.channel_power.get(), g_pos, g_neg);
        let diff = self
            .detector
            .difference_current(Watt::new(p_pos), Watt::new(p_neg));
        // Full scale: all channels at activation 1 with weight magnitude
        // 1 on one waveguide.
        let full_scale = self.per_channel_full * activations.len().max(1) as f64;
        let noisy = noise.detector(diff.get(), full_scale);
        Ok(MacResult {
            // Loss-normalised value in weight·activation units.
            value: noisy / self.per_channel_full,
            raw_current: noisy,
            latency: self.dwell,
            optical_energy: Watt::new(p_pos + p_neg) * self.dwell,
        })
    }

    /// Faithful port of the pre-optimisation MAC: validates inside the
    /// loop, re-derives both crosstalk Lorentzians and the rail
    /// coefficients per channel from ring state, recomputes the
    /// full-scale and time-of-flight terms per call. The MAC of the
    /// serial conv oracle, `OisaAccelerator::convolve_frame_sequential`
    /// in `oisa_core`, which shares none of the engines' precomputed
    /// gains or ring-table taps; it produces the same values as
    /// [`Arm::mac`] and [`RingTable::fused_mac`] given the same noise
    /// draws.
    ///
    /// # Errors
    ///
    /// Same contract as [`Arm::mac`], but the range error reports no
    /// index (the historical message).
    pub fn mac_reference<N: NoiseModel>(
        &self,
        activations: &[f64],
        noise: &mut N,
    ) -> Result<MacResult> {
        if activations.len() > self.weights.len() {
            return Err(OpticsError::InvalidParameter(format!(
                "{} activations for {} loaded weights",
                activations.len(),
                self.weights.len()
            )));
        }
        let cfg = *noise.config();
        let spacing = self.plan.spacing();
        let mut taps = [RailTap::PARKED; RINGS_PER_ARM];
        for (i, (a, w)) in activations.iter().zip(&self.weights).enumerate() {
            if !(0.0..=1.0).contains(a) {
                return Err(OpticsError::InvalidParameter(format!(
                    "activation {a} outside [0, 1]"
                )));
            }
            let mut xt = 1.0;
            if self.config.crosstalk {
                if i > 0 {
                    xt *= self.rings[i - 1].crosstalk_transmission(spacing);
                }
                if i + 1 < self.weights.len() {
                    xt *= self.rings[i + 1].crosstalk_transmission(-spacing);
                }
            }
            taps[i] = RailTap::unit(ring_moments(w.magnitude, &cfg), w.negative)
                .scaled(xt * self.path_transmission);
        }
        // The same rail evaluation and draw order as `Arm::mac`: the
        // reference port must stay bit-equal to the optimised paths.
        let rails = RailSums::fold(&taps[..activations.len()], activations);
        let (g_pos, g_neg) = (noise.standard_normal(), noise.standard_normal());
        let (p_pos, p_neg) = rails.powers(self.config.channel_power.get(), g_pos, g_neg);
        let diff = self
            .detector
            .difference_current(Watt::new(p_pos), Watt::new(p_neg));
        let full_scale = self.config.channel_power.get()
            * self.path_transmission
            * self.config.detector.responsivity_a_per_w
            * activations.len().max(1) as f64;
        let noisy = noise.detector(diff.get(), full_scale);
        let per_channel_full = self.config.channel_power.get()
            * self.path_transmission
            * self.config.detector.responsivity_a_per_w;
        let value = noisy / per_channel_full;
        let latency = self.time_of_flight() + self.detector.settling_time();
        let optical_energy =
            Watt::new(p_pos + p_neg) * (self.time_of_flight() + self.detector.settling_time());
        Ok(MacResult {
            value,
            raw_current: noisy,
            latency,
            optical_energy,
        })
    }

    /// Checks activation count against the loaded weights and the
    /// `[0, 1]` range, reporting the first offending index.
    fn validate_activations(&self, activations: &[f64]) -> Result<()> {
        let loaded = self.weights.len();
        if activations.len() > loaded {
            return Err(OpticsError::InvalidParameter(format!(
                "{} activations for {loaded} loaded weights",
                activations.len(),
            )));
        }
        if let Some(i) = activations.iter().position(|a| !(0.0..=1.0).contains(a)) {
            return Err(OpticsError::InvalidParameter(format!(
                "activation {} at index {i} outside [0, 1]",
                activations[i]
            )));
        }
        Ok(())
    }

    /// Optical time of flight along the arm (group velocity c/n_g).
    #[must_use]
    pub(crate) fn time_of_flight(&self) -> Second {
        let v = oisa_units::SPEED_OF_LIGHT_M_PER_S / self.config.ring.group_index;
        Second::new(self.config.length.get() / v)
    }
}

/// Code values a staged weight byte holds: seven code bits, with the
/// sign in the eighth ([`RingTable::stage`]).
const STAGED_CODES: usize = 1 << 7;

/// Sign bit of a staged weight byte: set for the negative waveguide.
const STAGED_NEGATIVE: u8 = 1 << 7;

/// Per-code ring table: the one staged MAC state both engines evaluate,
/// with no arm involved.
///
/// A [`Microring`]'s state is its absolute detuning, and the detuning
/// [`Arm::load_weights`] gives a ring depends only on its weight's
/// quantisation code, so the crosstalk a ring imposes on its
/// neighbours is a function of that code alone — and so are its
/// transmission moments under a fixed [`NoiseConfig`]. The table tunes
/// one fresh ring per code through the calls `load_weights` makes and
/// keeps its rail moments, plus the arm design's detector, full-scale
/// and dwell constants. A tap's crosstalk × waveguide gain depends
/// only on its two neighbours' codes, so the table also keeps that
/// gain for every `(previous code or none, next code or none)` pair,
/// each computed once in the product order `load_weights` uses.
///
/// [`RingTable::stage`] quantises a weight once, into a byte holding
/// its code and sign. [`RingTable::taps`] forms the rail taps of an
/// arm chunk of staged bytes: per tap, the unit-gain rail coefficients
/// of its byte scaled by the gain of its neighbour pair.
/// [`RingTable::fused_mac`] folds those taps against a window's
/// activations — no check, no sign branch, no heap allocation, no
/// mutable state and no fabric access, so any number of threads can
/// evaluate against one table. A convolution pass forms each arm's taps
/// once and runs every window against them; a dense chunk forms its
/// taps once per engine call and folds them against every frame's
/// activations.
#[derive(Debug, Clone)]
pub struct RingTable {
    mapper: WeightMapper,
    /// Crosstalk × waveguide gain of a tap, row-major by the slots of
    /// its neighbours `i − 1` and `i + 1`: slot 0 is no neighbour (a
    /// chunk edge, or crosstalk modelling off), slot `c + 1` a ring
    /// holding code `c`.
    gains: Vec<f64>,
    /// Slots per neighbour: the code count plus the no-neighbour slot.
    slots: usize,
    /// Unit-gain rail coefficients of every byte value: for a staged
    /// byte, its code's [`ring_moments`] under `noise` on the rail its
    /// sign bit selects; bytes holding no code stay parked.
    unit_taps: Box<[RailTap; 256]>,
    noise: NoiseConfig,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

/// The rail taps of one arm chunk, formed by [`RingTable::taps`] and
/// folded by [`RingTable::fused_mac`]: the taps [`Arm::load_weights`]
/// gives an arm holding the same weights.
#[derive(Debug, Clone)]
pub struct StagedTaps {
    taps: [RailTap; RINGS_PER_ARM],
    len: usize,
}

impl RingTable {
    /// Builds the table for arms of design `config` loaded through
    /// `mapper`, evaluated under `noise`: one ring tuning and one
    /// moment evaluation per code (16 at 4 bits), and one gain per
    /// neighbour pair (289 at 4 bits). The table keeps its own copy of
    /// `mapper`.
    ///
    /// # Errors
    ///
    /// * [`OpticsError::CapacityExceeded`] when `mapper` has more codes
    ///   than a staged byte holds (128).
    /// * [`OpticsError::Device`] when the arm design or a ring tuning
    ///   is rejected.
    pub fn new(config: ArmConfig, mapper: &WeightMapper, noise: &NoiseConfig) -> Result<Self> {
        let codes = mapper.levels().len();
        if codes > STAGED_CODES {
            return Err(OpticsError::CapacityExceeded {
                capacity: STAGED_CODES,
                requested: codes,
            });
        }
        // An idle arm supplies the design constants, so the table
        // evaluates with exactly the bits a loaded arm does.
        let arm = Arm::new(config)?;
        let spacing = arm.plan.spacing();
        // Per code, the crosstalk transmission its ring imposes as a
        // tap's neighbour i − 1 (`xt_prev`) and as its neighbour i + 1
        // (`xt_next`).
        let mut xt_prev = Vec::with_capacity(codes);
        let mut xt_next = Vec::with_capacity(codes);
        for &magnitude in mapper.levels() {
            let mut ring = Microring::new(config.ring)?;
            tune_to_magnitude(&mut ring, magnitude)?;
            xt_prev.push(ring.crosstalk_transmission(spacing));
            xt_next.push(ring.crosstalk_transmission(-spacing));
        }
        let mut unit_taps = Box::new([RailTap::PARKED; 256]);
        for (code, &magnitude) in mapper.levels().iter().enumerate() {
            let moments = ring_moments(magnitude, noise);
            unit_taps[code] = RailTap::unit(moments, false);
            unit_taps[code | usize::from(STAGED_NEGATIVE)] = RailTap::unit(moments, true);
        }
        let slots = codes + 1;
        let neighbour =
            |xt: &[f64], slot: usize| (config.crosstalk && slot > 0).then(|| xt[slot - 1]);
        let mut gains = Vec::with_capacity(slots * slots);
        for prev in 0..slots {
            for next in 0..slots {
                gains.push(tap_gain(
                    arm.path_transmission,
                    neighbour(&xt_prev, prev),
                    neighbour(&xt_next, next),
                ));
            }
        }
        Ok(Self {
            mapper: mapper.clone(),
            gains,
            slots,
            unit_taps,
            noise: *noise,
            detector: arm.detector,
            per_channel_full: arm.per_channel_full,
            channel_power: config.channel_power.get(),
            dwell: arm.dwell,
        })
    }

    /// Quantises one weight through the table's mapper into a staged
    /// byte: the code in the low seven bits, the sign in the eighth.
    ///
    /// # Errors
    ///
    /// [`OpticsError::InvalidParameter`] for a weight outside `[−1, 1]`
    /// or not finite — the mapper's own check, so the error is the one
    /// [`Arm::load_weights`] returns for that weight.
    pub fn stage(&self, weight: f64) -> Result<u8> {
        let mapped = self.mapper.quantize(weight)?;
        // `new` caps the mapper at `STAGED_CODES` codes, so every code
        // fits the low seven bits.
        let sign = if mapped.negative { STAGED_NEGATIVE } else { 0 };
        Ok(mapped.code as u8 | sign)
    }

    /// Optical + detection latency of one MAC: the `latency` of every
    /// [`MacResult`] an arm of the table's design returns.
    #[must_use]
    pub fn latency(&self) -> Second {
        self.dwell
    }

    /// The rail taps of an arm chunk of bytes staged by
    /// [`RingTable::stage`]: each tap's unit-gain coefficients scaled by
    /// the gain of its neighbours' codes, with no neighbour past either
    /// end of the chunk.
    ///
    /// Nothing is checked (debug builds assert it): `staged` must hold
    /// at most [`RINGS_PER_ARM`] bytes staged by a table over the same
    /// mapper.
    #[inline(always)]
    #[must_use]
    pub fn taps(&self, staged: &[u8]) -> StagedTaps {
        debug_assert!(staged.len() <= RINGS_PER_ARM);
        // Tap `i`'s slot sits at `slot[i + 1]`, with the no-neighbour
        // slot 0 past both ends of the chunk.
        let mut slot = [0usize; RINGS_PER_ARM + 2];
        for (s, &byte) in slot[1..].iter_mut().zip(staged) {
            *s = usize::from(byte & !STAGED_NEGATIVE) + 1;
        }
        let mut taps = [RailTap::PARKED; RINGS_PER_ARM];
        for (i, (tap, &byte)) in taps.iter_mut().zip(staged).enumerate() {
            *tap = self.unit_taps[usize::from(byte)]
                .scaled(self.gains[slot[i] * self.slots + slot[i + 2]]);
        }
        StagedTaps {
            taps,
            len: staged.len(),
        }
    }

    /// The fused, counter-addressed MAC every engine runs: folds `taps`
    /// against `activations` and draws on `stream` the positive rail at
    /// counter `base`, the negative rail at `base + 1` and the detector
    /// at `base + 2` ([`COUNTER_STRIDE`]), for every window length.
    /// Returns `(value, optical_energy_joules)` and builds no
    /// [`MacResult`]: the `value` and `optical_energy` of [`Arm::mac`]
    /// on an arm holding the same weights, driven by a cursor that
    /// starts at counter `base`.
    ///
    /// A rail whose variance is zero skips its draw. That changes no
    /// bit: the general path's draw would be multiplied by `√0`, adding
    /// an exact `±0.0` to a non-negative mean.
    ///
    /// Nothing is checked (debug builds assert it): `activations` must
    /// be no longer than `taps` and lie in `[0, 1]`, and `stream` must
    /// carry the [`NoiseConfig`] the table was built under. The engines
    /// validate their input once per call instead of once per MAC.
    #[inline(always)]
    #[must_use]
    pub fn fused_mac(
        &self,
        taps: &StagedTaps,
        activations: &[f64],
        stream: &NoiseStream,
        base: u64,
    ) -> (f64, f64) {
        debug_assert!(activations.len() <= taps.len);
        debug_assert!(activations.iter().all(|a| (0.0..=1.0).contains(a)));
        debug_assert_eq!(stream.config(), &self.noise);
        let (p_pos, p_neg) = rail_powers_at(
            &taps.taps[..taps.len],
            activations,
            self.channel_power,
            stream,
            base,
        );
        let diff = self
            .detector
            .difference_current(Watt::new(p_pos), Watt::new(p_neg));
        let full_scale = self.per_channel_full * activations.len().max(1) as f64;
        let noisy = stream.detector_at(base + 2, diff.get(), full_scale);
        (
            noisy / self.per_channel_full,
            (p_pos + p_neg) * self.dwell.get(),
        )
    }
}

/// Tunes `ring` so its channel transmission encodes `magnitude`;
/// parked rings (magnitude 0) sit on resonance and block their
/// channel. Shared by [`Arm::load_weights`] and [`RingTable::new`], so
/// a table ring lands on the exact detuning a loaded arm's does.
fn tune_to_magnitude(ring: &mut Microring, magnitude: f64) -> Result<TuningOutcome> {
    let floor = ring.design().intrinsic_loss;
    let target = floor + (0.95 - floor) * magnitude;
    let detuning = ring.detuning_for_transmission(target)?;
    Ok(ring.apply_detuning(detuning))
}

/// Crosstalk × waveguide gain of one tap: the Lorentzian tail of its
/// neighbour `i − 1` (`prev`), then of its neighbour `i + 1` (`next`),
/// then the path transmission — one product order shared by
/// [`Arm::load_weights`] and [`RingTable::new`]'s gain table. A
/// neighbour outside the window, or any neighbour with crosstalk
/// modelling off, is `None`.
fn tap_gain(path_transmission: f64, prev: Option<f64>, next: Option<f64>) -> f64 {
    let mut xt = 1.0;
    if let Some(prev) = prev {
        xt *= prev;
    }
    if let Some(next) = next {
        xt *= next;
    }
    xt * path_transmission
}

/// One tap's rail coefficients: its ring adds `a·α` to its rail's mean
/// and `a²·β` to its rail's variance (module docs), with
/// `α = gain·E[t′]` and `β = gain²·((1 + σv²)·E[t′²] − E[t′]²)`.
///
/// Both coefficients are stored per rail — index 0 the positive
/// waveguide, 1 the negative — with the tap's own rail holding them
/// and the other an exact `+0.0`, so [`RailSums::fold`] adds every tap
/// to both rails without asking which one it sits on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RailTap {
    alpha: [f64; 2],
    beta: [f64; 2],
}

impl RailTap {
    /// Filler for the unused slots of a fixed-size tap array.
    const PARKED: Self = Self {
        alpha: [0.0; 2],
        beta: [0.0; 2],
    };

    /// A ring's [`ring_moments`] at unit gain, on the rail `negative`
    /// selects — by index rather than by branch.
    fn unit((mean, var): (f64, f64), negative: bool) -> Self {
        let mut tap = Self::PARKED;
        let rail = usize::from(negative);
        tap.alpha[rail] = mean;
        tap.beta[rail] = var;
        tap
    }

    /// This unit-gain tap under its crosstalk × waveguide gain:
    /// `α = gain·E[t′]` and `β = (gain·gain)·var` on its rail — the one
    /// product order every path shares — and `gain·(+0.0) = +0.0` on
    /// the other.
    #[inline]
    fn scaled(self, gain: f64) -> Self {
        let square = gain * gain;
        Self {
            alpha: self.alpha.map(|mean| gain * mean),
            beta: self.beta.map(|var| square * var),
        }
    }
}

/// Mean `E[t′]` and variance coefficient `(1 + σv²)·E[t′²] − E[t′]²` of
/// a ring of `magnitude` under `noise`, where `t′ = clamp(m·(1 + σm·h),
/// 0, 1)`: per unit of launched power, the mean and variance of what
/// the ring passes once VCSEL RIN multiplies in. Under the noiseless
/// config the pair is exactly `(min(m, 1), 0)`.
fn ring_moments(magnitude: f64, noise: &NoiseConfig) -> (f64, f64) {
    let (mean, square) = transmission_moments(magnitude, noise.mr_drift);
    let rin2 = noise.vcsel_rin * noise.vcsel_rin;
    (mean, ((1.0 + rin2) * square - mean * mean).max(0.0))
}

/// `E[t′]` and `E[t′²]` for `t′ = clamp(Y, 0, 1)` with
/// `Y = m + s·h ~ N(m, s²)`, `s = m·|σm|`: the truncated-normal moments
/// inside the clamp plus the clamped mass at 1 (the mass at 0 adds
/// nothing).
fn transmission_moments(m: f64, drift: f64) -> (f64, f64) {
    let s = m * drift.abs();
    if s == 0.0 {
        let t = m.clamp(0.0, 1.0);
        return (t, t * t);
    }
    // `Y` reaches 1 at `h = c = (1 − m)/s` and 0 at `h = d = −m/s`. A
    // clamp point more than `TAIL_CUTOFF` σ away adds nothing, which
    // spares the tail evaluation for every paper-ladder magnitude at
    // paper σ, and for the 0 clamp whenever σm < 1/9.
    let (q_c, phi_c) = if 1.0 - m > TAIL_CUTOFF * s {
        (0.0, 0.0)
    } else {
        normal_tail((1.0 - m) / s)
    };
    let (q_d, phi_d) = if m > TAIL_CUTOFF * s {
        (1.0, 0.0)
    } else {
        normal_tail(-m / s)
    };
    let inside = q_d - q_c;
    let mean = m * inside + s * (phi_d - phi_c) + q_c;
    let square = (m * m + s * s) * inside + m * s * phi_d - s * (1.0 + m) * phi_c + q_c;
    (mean, square)
}

/// Standardised distance past which a clamp point is ignored: 9σ out,
/// a normal tail's mass and density are both below 1e-18, far under an
/// f64 ulp of any moment they would correct.
const TAIL_CUTOFF: f64 = 9.0;

/// `1/√(2π)`, the standard normal density's peak.
const FRAC_1_SQRT_2PI: f64 =
    std::f64::consts::FRAC_2_SQRT_PI * std::f64::consts::FRAC_1_SQRT_2 / 2.0;

/// Upper-tail mass `Q(z) = P(h > z)` and density `φ(z)` of a standard
/// normal `h`.
fn normal_tail(z: f64) -> (f64, f64) {
    (
        0.5 * erfc(z * std::f64::consts::FRAC_1_SQRT_2),
        (-0.5 * z * z).exp() * FRAC_1_SQRT_2PI,
    )
}

/// Chebyshev coefficients of [`erfc`], lowest order first.
const ERFC_COEFFS: [f64; 10] = [
    -1.265_512_23,
    1.000_023_68,
    0.374_091_96,
    0.096_784_18,
    -0.186_288_06,
    0.278_868_07,
    -1.135_203_98,
    1.488_515_87,
    -0.822_152_23,
    0.170_872_77,
];

/// Complementary error function from a Chebyshev fit, with fractional
/// error below 1.2e-7 for every `x` (std has no `erfc`).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = ERFC_COEFFS.iter().rev().fold(0.0, |acc, &c| acc * t + c);
    let r = t * (poly - z * z).exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Fixed number of accumulator lanes every MAC fold commits to
/// (element `i` lands in lane `i mod LANES`). The value is part of the
/// bit-level determinism contract (module docs) and must never
/// silently track the host vector width.
pub const LANES: usize = 4;

/// One window's rail moments: `Σa·α` and `Σa²·β` for each rail, each
/// folded through the lane contract.
struct RailSums {
    pos_mean: f64,
    pos_var: f64,
    neg_mean: f64,
    neg_var: f64,
}

impl RailSums {
    /// Folds the taps that have an activation — historical zip
    /// semantics: a window shorter than the taps evaluates only its own
    /// elements. Element `i` lands in lane `i mod LANES` of its rail's
    /// two accumulators, and the lanes reduce through [`reduce_lanes`].
    ///
    /// Every tap adds to both rails: the other rail's coefficients are
    /// `+0.0` ([`RailTap`]), and adding `a·(+0.0) = +0.0` changes no
    /// accumulator, because none is ever `−0.0` — they start at `+0.0`
    /// and activations, `α` and `β` are all non-negative. So the fold
    /// has no sign branch to mispredict on a dense chunk's random signs.
    ///
    /// The walk goes [`LANES`] elements at a time so every lane index is
    /// a constant and the sixteen accumulators stay in registers; a
    /// runtime lane index spills them to memory and costs about a third
    /// of the MAC.
    #[inline(always)]
    fn fold(taps: &[RailTap], activations: &[f64]) -> Self {
        // `mean[lane][rail]`, `var[lane][rail]`.
        let mut mean = [[0.0f64; 2]; LANES];
        let mut var = [[0.0f64; 2]; LANES];
        let mut add = |lane: usize, tap: &RailTap, a: f64| {
            let a2 = a * a;
            for rail in 0..2 {
                mean[lane][rail] += a * tap.alpha[rail];
                var[lane][rail] += a2 * tap.beta[rail];
            }
        };
        let n = taps.len().min(activations.len());
        let mut tap_chunks = taps[..n].chunks_exact(LANES);
        let mut act_chunks = activations[..n].chunks_exact(LANES);
        for (t, a) in (&mut tap_chunks).zip(&mut act_chunks) {
            for lane in 0..LANES {
                add(lane, &t[lane], a[lane]);
            }
        }
        for (lane, (tap, &a)) in tap_chunks
            .remainder()
            .iter()
            .zip(act_chunks.remainder())
            .enumerate()
        {
            add(lane, tap, a);
        }
        let rail = |acc: &[[f64; 2]; LANES], rail: usize| reduce_lanes(acc.map(|lane| lane[rail]));
        Self {
            pos_mean: rail(&mean, 0),
            pos_var: rail(&var, 0),
            neg_mean: rail(&mean, 1),
            neg_var: rail(&var, 1),
        }
    }

    /// Both rails' optical powers given their standard-normal draws:
    /// `max(0, P·(mean + √var·G))` per rail.
    #[inline(always)]
    fn powers(&self, channel_power_w: f64, g_pos: f64, g_neg: f64) -> (f64, f64) {
        let rail =
            |mean: f64, var: f64, g: f64| (channel_power_w * (mean + var.sqrt() * g)).max(0.0);
        (
            rail(self.pos_mean, self.pos_var, g_pos),
            rail(self.neg_mean, self.neg_var, g_neg),
        )
    }
}

/// Reduces the lane accumulators through the one canonical tree:
/// fold the high half onto the low half (`l0+l2`, `l1+l3`), then add
/// the halves — the order a 256-bit register split produces. Every MAC
/// path commits to this exact tree; see the module-level performance
/// notes for why the order is load-bearing.
#[inline]
fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Both rails' optical powers for one window of the fused path: the
/// positive rail draws counter `base`, the negative rail `base + 1`,
/// and a rail with zero variance draws nothing.
#[inline(always)]
fn rail_powers_at(
    taps: &[RailTap],
    activations: &[f64],
    channel_power_w: f64,
    stream: &NoiseStream,
    base: u64,
) -> (f64, f64) {
    let rails = RailSums::fold(taps, activations);
    let draw = |var: f64, counter: u64| {
        if var > 0.0 {
            stream.gaussian_at(counter)
        } else {
            0.0
        }
    };
    rails.powers(
        channel_power_w,
        draw(rails.pos_var, base),
        draw(rails.neg_var, base + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource, StreamCursor};
    use proptest::prelude::*;

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    fn loaded_arm_with(config: ArmConfig, weights: &[f64], bits: u8) -> Arm {
        let mapper = WeightMapper::ideal(bits).unwrap();
        let mut arm = Arm::new(config).unwrap();
        arm.load_weights(weights, &mapper).unwrap();
        arm
    }

    fn loaded_arm(weights: &[f64], bits: u8) -> Arm {
        loaded_arm_with(ArmConfig::paper_default(), weights, bits)
    }

    /// The ring table of a paper-default arm under `noise` and the taps
    /// of `weights` staged through it: the state [`loaded_arm`] tunes
    /// onto an arm.
    fn staged(weights: &[f64], bits: u8, noise: &NoiseConfig) -> (RingTable, StagedTaps) {
        let mapper = WeightMapper::ideal(bits).unwrap();
        let table = RingTable::new(ArmConfig::paper_default(), &mapper, noise).unwrap();
        let bytes: Vec<u8> = weights.iter().map(|&w| table.stage(w).unwrap()).collect();
        let taps = table.taps(&bytes);
        (table, taps)
    }

    /// A cursor over `stream` that has drawn counters `0..base`, so the
    /// next MAC through it draws at `base`, `base + 1` and `base + 2`.
    fn cursor_from(stream: &NoiseStream, base: u64) -> StreamCursor {
        let mut cursor = stream.cursor();
        for _ in 0..base {
            cursor.standard_normal();
        }
        cursor
    }

    #[test]
    fn mac_matches_exact_dot_product_noiselessly() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0];
        let arm = loaded_arm_with(ArmConfig::no_crosstalk(), &w, 4);
        let out = arm.mac(&a, &mut quiet()).unwrap();
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        // 4-bit quantisation bounds the per-element error to 1/30.
        assert!(
            (out.value - exact).abs() < 9.0 / 30.0 + 1e-6,
            "got {} exact {exact}",
            out.value
        );
    }

    #[test]
    fn positive_and_negative_weights_cancel() {
        let arm = loaded_arm_with(ArmConfig::no_crosstalk(), &[1.0, -1.0], 4);
        let out = arm.mac(&[1.0, 1.0], &mut quiet()).unwrap();
        assert!(out.value.abs() < 1e-9, "got {}", out.value);
    }

    #[test]
    fn crosstalk_shaves_a_few_percent() {
        let w = [0.8; 9];
        let a = [1.0; 9];
        let clean = loaded_arm_with(ArmConfig::no_crosstalk(), &w, 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        let with_xt = loaded_arm(&w, 4).mac(&a, &mut quiet()).unwrap().value;
        let loss = (clean - with_xt) / clean;
        assert!(loss > 0.0, "crosstalk must attenuate, got gain {loss}");
        assert!(
            loss < 0.15,
            "crosstalk loss {loss} too large for the paper channel plan"
        );
    }

    #[test]
    fn detuned_neighbours_leak_toward_next_channel() {
        // Weight detuning shifts a ring's resonance *toward* the next
        // channel, so fully-detuned neighbours attenuate the centre
        // channel more than parked ones — the physical reason the
        // channel plan spreads over the whole FSR.
        let a = [0.0, 1.0, 0.0];
        let parked = loaded_arm(&[0.0, 0.8, 0.0], 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        let detuned = loaded_arm(&[1.0, 0.8, 1.0], 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        assert!(
            detuned < parked,
            "detuned neighbours should attenuate the centre channel more: {detuned} vs {parked}"
        );
        // But with the FSR-wide plan the effect stays small.
        assert!((parked - detuned) / parked < 0.05);
    }

    #[test]
    fn all_zero_weights_give_zero() {
        let arm = loaded_arm(&[0.0; 9], 4);
        let out = arm.mac(&[1.0; 9], &mut quiet()).unwrap();
        assert!(out.value.abs() < 1e-12);
    }

    #[test]
    fn capacity_enforced() {
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        let too_many = vec![0.1; RINGS_PER_ARM + 1];
        assert!(matches!(
            arm.load_weights(&too_many, &mapper),
            Err(OpticsError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn activation_validation() {
        let arm = loaded_arm(&[0.5; 9], 4);
        assert!(arm.mac(&[1.5; 9], &mut quiet()).is_err());
        assert!(arm.mac(&[1.0; 10], &mut quiet()).is_err());
    }

    #[test]
    fn tuning_costs_accounted() {
        let arm = loaded_arm(&[0.9; 9], 4);
        assert!(arm.tuning_energy().get() > 0.0);
        assert!(arm.holding_power().get() > 0.0);
    }

    #[test]
    fn holding_power_within_architecture_budget() {
        // Full-magnitude weights are the worst case; the paper's power
        // budget requires an arm to hold well under 10 × 0.3 mW.
        let arm = loaded_arm(&[1.0; 9], 4);
        let p = arm.holding_power();
        assert!(p.as_milli() < 3.0, "arm holding power {p}");
    }

    #[test]
    fn latency_dominated_by_flight_plus_detector() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let out = arm.mac(&[1.0; 9], &mut quiet()).unwrap();
        // 500 µm at c/4.2 ≈ 7 ps, BPD ≈ 8.3 ps → ~15 ps.
        assert!(
            out.latency.as_pico() > 5.0 && out.latency.as_pico() < 60.0,
            "latency {}",
            out.latency
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0];
        let arm = loaded_arm(&w, 4);
        let mut noisy = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        let runs: Vec<f64> = (0..64)
            .map(|_| arm.mac(&a, &mut noisy).unwrap().value)
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!((mean - exact).abs() < 0.4, "mean {mean} vs exact {exact}");
        let spread = runs.iter().map(|r| (r - mean).abs()).fold(0.0f64, f64::max);
        assert!(spread > 0.0, "noise must perturb results");
        assert!(spread < 0.5, "noise out of calibration: {spread}");
    }

    #[test]
    fn indexed_reference_and_general_macs_are_bit_identical() {
        // Same stream, three evaluation strategies: the fused fast path
        // (explicit counters, coefficients staged in a ring table), the
        // general path behind a sequential cursor, and the
        // pre-optimisation reference port.
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0]; // ternary-ish, with zeros
        let arm = loaded_arm(&w, 4);
        let (table, taps) = staged(&w, 4, &NoiseConfig::paper_default());
        let source = NoiseSource::seeded(99, NoiseConfig::paper_default());
        let stream = source.stream(0, 3, 17);

        let (fast_value, fast_energy) = table.fused_mac(&taps, &a, &stream, 0);
        let general = arm.mac(&a, &mut stream.cursor()).unwrap();
        let reference = arm.mac_reference(&a, &mut stream.cursor()).unwrap();

        assert_eq!(fast_value, general.value);
        assert_eq!(fast_value, reference.value);
        assert_eq!(fast_energy, general.optical_energy.get());
        assert_eq!(fast_energy, reference.optical_energy.get());
        assert_eq!(general.raw_current, reference.raw_current);
    }

    #[test]
    fn detector_counter_is_base_plus_two_for_every_window_length() {
        // The contract: the detector draws at `base + 2` whatever the
        // window length — 0, shorter than the staged weights, or a full
        // arm. With the rails noiseless, the fused value is the
        // noiseless value plus exactly that draw.
        let w10 = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5, 0.3];
        let detector_only = NoiseConfig {
            detector: 0.005,
            ..NoiseConfig::noiseless()
        };
        let (quiet_table, quiet_taps) = staged(&w10, 4, &NoiseConfig::noiseless());
        let (table10, taps10) = staged(&w10, 4, &detector_only);
        let clean = quiet().stream(0, 1, 9);
        let stream = NoiseSource::seeded(13, detector_only).stream(0, 1, 9);
        let base = 7;
        for m in 0..=RINGS_PER_ARM {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (value, _) = table10.fused_mac(&taps10, &a, &stream, base);
            let expected = quiet_table.fused_mac(&quiet_taps, &a, &clean, base).0
                + 0.005 * m.max(1) as f64 * stream.gaussian_at(base + 2);
            assert!(
                (value - expected).abs() < 1e-12,
                "m={m}: {value} vs {expected}"
            );
        }
        // Under paper noise all three MAC paths agree on every length,
        // and the same short window against fewer staged weights
        // replays the same draws: no counter tracks the weight count.
        // (m ≤ 8 keeps the last evaluated ring's crosstalk
        // neighbourhood identical between the 9- and 10-weight taps.)
        let arm10 = loaded_arm(&w10, 4);
        let (table, taps10) = staged(&w10, 4, &NoiseConfig::paper_default());
        let (_, taps9) = staged(&w10[..9], 4, &NoiseConfig::paper_default());
        let stream = NoiseSource::seeded(13, NoiseConfig::paper_default()).stream(0, 1, 9);
        for m in 0..=RINGS_PER_ARM {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (fast, fast_energy) = table.fused_mac(&taps10, &a, &stream, 0);
            let general = arm10.mac(&a, &mut stream.cursor()).unwrap();
            let reference = arm10.mac_reference(&a, &mut stream.cursor()).unwrap();
            assert_eq!(fast, general.value, "m={m}");
            assert_eq!(fast, reference.value, "m={m}");
            assert_eq!(fast_energy, general.optical_energy.get(), "m={m}");
            if m <= 8 {
                assert_eq!(fast, table.fused_mac(&taps9, &a, &stream, 0).0, "m={m}");
            }
        }
    }

    #[test]
    fn noiseless_mac_draws_nothing() {
        // Every rail variance is 0 and the detector σ is 0, so no
        // draw enters the result: any two streams give the same bits.
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let (table, taps) = staged(&w, 4, &NoiseConfig::noiseless());
        let a = [1.0, 0.2, 0.5, 0.0, 1.0, 0.5, 0.9, 0.022, 1.0];
        let one = quiet().stream(0, 1, 2);
        let other = NoiseSource::seeded(77, NoiseConfig::noiseless()).stream(5, 6, 7);
        assert_eq!(
            table.fused_mac(&taps, &a, &one, 0),
            table.fused_mac(&taps, &a, &other, 3)
        );
        for w in &taps.taps[..taps.len] {
            assert_eq!(w.beta, [0.0; 2]);
        }
    }

    #[test]
    fn ring_table_matches_a_freshly_loaded_arm() {
        // Every ladder the fabric uses, every resolution, crosstalk on
        // and off, every chunk length up to a full arm: staging a chunk
        // and evaluating its taps equals loading the chunk onto an arm
        // and evaluating it under a cursor, bit for bit — from counter
        // 0, as a dense chunk draws, and from a later base, as a
        // convolution window's second arm draws — and a re-loaded arm
        // never remembers its previous chunk.
        let noise = NoiseConfig::paper_default();
        let source = NoiseSource::seeded(5, noise);
        for crosstalk in [false, true] {
            let config = ArmConfig {
                crosstalk,
                ..ArmConfig::paper_default()
            };
            for bits in 1..=4u8 {
                for mapper in [
                    WeightMapper::ideal(bits).unwrap(),
                    WeightMapper::paper(bits).unwrap(),
                ] {
                    let table = RingTable::new(config, &mapper, &noise).unwrap();
                    let mut arm = Arm::new(config).unwrap();
                    for n in 0..=RINGS_PER_ARM {
                        let salt = u64::from(bits) * 11 + n as u64;
                        let w: Vec<f64> = (0..n)
                            .map(|i| ((salt + i as u64) as f64 * 0.71).sin())
                            .collect();
                        let a: Vec<f64> = (0..n)
                            .map(|i| ((salt + i as u64) as f64 * 0.43).cos().abs())
                            .collect();
                        let stream = source.stream(0, salt, n as u64);
                        let staged: Vec<u8> = w.iter().map(|&w| table.stage(w).unwrap()).collect();
                        let taps = table.taps(&staged);
                        arm.load_weights(&w, &mapper).unwrap();
                        let case = format!("crosstalk {crosstalk}, {bits} bits, {n} weights");
                        for base in [0, COUNTER_STRIDE] {
                            let loaded = arm.mac(&a, &mut cursor_from(&stream, base)).unwrap();
                            assert_eq!(
                                table.fused_mac(&taps, &a, &stream, base),
                                (loaded.value, loaded.optical_energy.get()),
                                "{case}, base {base}"
                            );
                            assert_eq!(table.latency(), loaded.latency, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_reports_offending_index() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let mut acts = [0.5; 9];
        acts[6] = 1.5;
        let err = arm.mac(&acts, &mut quiet()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("index 6"),
            "message must name the index: {msg}"
        );
        assert!(msg.contains("1.5"), "message must name the value: {msg}");
    }

    #[test]
    fn erfc_matches_tabulated_values() {
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (-0.5, 1.520_499_877_813_046_5),
            (1.0, 0.157_299_207_050_285_13),
            (-1.0, 1.842_700_792_949_715),
            (3.0, 2.209_049_699_858_543_8e-5),
            (-3.0, 1.999_977_909_503_001_5),
        ] {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() <= 1.2e-7,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn transmission_moments_at_the_clamp_point() {
        // Magnitude 1 puts the clamp point at the mean (c = 0), so half
        // the draws clamp: E[t′] = 1 − σm/√(2π) and
        // E[t′²] = 1 − 2σm/√(2π) + σm²/2.
        for drift in [0.01, 0.05] {
            let (mean, square) = transmission_moments(1.0, drift);
            let k = drift / (2.0 * std::f64::consts::PI).sqrt();
            assert!((mean - (1.0 - k)).abs() < 1e-12, "σm {drift}: mean {mean}");
            let want = 1.0 - 2.0 * k + drift * drift / 2.0;
            assert!((square - want).abs() < 1e-10, "σm {drift}: E[t′²] {square}");
        }
    }

    #[test]
    fn ring_moments_far_from_the_clamp() {
        // Neither clamp point within `TAIL_CUTOFF` σ: the pair is
        // (m, m²·((1 + σv²)(1 + σm²) − 1)).
        let cfg = NoiseConfig::paper_default();
        let factor = (1.0 + cfg.vcsel_rin.powi(2)) * (1.0 + cfg.mr_drift.powi(2)) - 1.0;
        for m in [0.05, 0.3, 0.5, 0.88] {
            let (mean, var) = ring_moments(m, &cfg);
            assert_eq!(mean, m);
            let want = m * m * factor;
            assert!(
                ((var - want) / want).abs() < 1e-10,
                "m {m}: {var} vs {want}"
            );
        }
    }

    #[test]
    fn ring_moments_are_exact_when_noiseless() {
        let cfg = NoiseConfig::noiseless();
        for m in [0.0, 0.3, 0.88, 1.0, 1.3] {
            assert_eq!(ring_moments(m, &cfg), (m.min(1.0), 0.0), "m {m}");
        }
        // VCSEL RIN alone: no clamp, variance m²·σv².
        let rin_only = NoiseConfig {
            vcsel_rin: 0.02,
            ..NoiseConfig::noiseless()
        };
        let (mean, var) = ring_moments(0.5, &rin_only);
        assert_eq!(mean, 0.5);
        assert!(
            (var / (0.25 * 0.02 * 0.02) - 1.0).abs() < 1e-10,
            "var {var}"
        );
    }

    #[test]
    fn ring_moments_stay_physical_under_exaggerated_drift() {
        // At σm = 0.5 both clamps bind often; t′ stays in [0, 1], so its
        // mean must too, and no variance may come out negative.
        let cfg = NoiseConfig {
            mr_drift: 0.5,
            vcsel_rin: 0.3,
            detector: 0.0,
        };
        for i in 0..=20 {
            let m = f64::from(i) / 20.0;
            let (mean, var) = ring_moments(m, &cfg);
            let (_, square) = transmission_moments(m, cfg.mr_drift);
            assert!((0.0..=1.0).contains(&mean), "m {m}: mean {mean}");
            assert!(square <= mean + 1e-12 && square >= mean * mean - 1e-12);
            assert!(var >= 0.0, "m {m}: var {var}");
        }
    }

    /// Test-side per-ring noise model, the one the rail moments replace:
    /// per ring, VCSEL RIN drawn at counter `2i` and ring drift at
    /// `2i + 1`, then the clamped transmission, the ring's gain and its
    /// rail.
    fn per_ring_rails(arm: &Arm, activations: &[f64], stream: &NoiseStream) -> (f64, f64) {
        let cfg = stream.config();
        let p_in = arm.config.channel_power.get();
        let (mut pos, mut neg) = (0.0, 0.0);
        for (i, (a, w)) in activations.iter().zip(&arm.weights).enumerate() {
            let c = 2 * i as u64;
            let launched = (p_in * a * (1.0 + cfg.vcsel_rin * stream.gaussian_at(c))).max(0.0);
            let t =
                (w.magnitude * (1.0 + cfg.mr_drift * stream.gaussian_at(c + 1))).clamp(0.0, 1.0);
            let arrived = launched * t * arm.ring_gain[i];
            if w.negative {
                neg += arrived;
            } else {
                pos += arrived;
            }
        }
        (pos, neg)
    }

    /// Sample moments of paired rail powers.
    struct RailStats {
        mean: [f64; 2],
        var: [f64; 2],
        fourth: [f64; 2],
        cov: f64,
    }

    fn rail_stats(samples: &[(f64, f64)]) -> RailStats {
        let n = samples.len() as f64;
        let pick = |s: &(f64, f64), r: usize| if r == 0 { s.0 } else { s.1 };
        let mut stats = RailStats {
            mean: [0.0; 2],
            var: [0.0; 2],
            fourth: [0.0; 2],
            cov: 0.0,
        };
        for r in 0..2 {
            stats.mean[r] = samples.iter().map(|s| pick(s, r)).sum::<f64>() / n;
            let d = |s: &(f64, f64)| pick(s, r) - stats.mean[r];
            stats.var[r] = samples.iter().map(|s| d(s).powi(2)).sum::<f64>() / n;
            stats.fourth[r] = samples.iter().map(|s| d(s).powi(4)).sum::<f64>() / n;
        }
        stats.cov = samples
            .iter()
            .map(|s| (s.0 - stats.mean[0]) * (s.1 - stats.mean[1]))
            .sum::<f64>()
            / n;
        stats
    }

    #[test]
    fn rail_moments_match_the_per_ring_model_over_a_million_windows() {
        // Both ladders; the ideal one includes magnitude 1.0, where the
        // drift clamp binds in half the draws, the paper one tops out
        // at 0.88, where it never binds. Crosstalk on and off; windows
        // of 1 to 10 taps. Per case, each rail's mean and variance and
        // the rail covariance must agree within 5 standard errors.
        const WINDOWS: u64 = 1_000_000;
        let noise = NoiseConfig::paper_default();
        let source = NoiseSource::seeded(2024, noise);
        let cases = [
            (WeightMapper::ideal(4).unwrap(), true, 10),
            (WeightMapper::ideal(2).unwrap(), false, 4),
            (WeightMapper::paper(4).unwrap(), true, 9),
            (WeightMapper::paper(3).unwrap(), false, 1),
        ];
        for (case, (mapper, crosstalk, taps)) in cases.into_iter().enumerate() {
            let config = ArmConfig {
                crosstalk,
                ..ArmConfig::paper_default()
            };
            // Random taps, with every third one at full magnitude.
            let weights: Vec<f64> = (0..taps)
                .map(|i| {
                    let w = ((case * 31 + i) as f64 * 0.754).sin();
                    if i % 3 == 0 {
                        w.signum()
                    } else {
                        w
                    }
                })
                .collect();
            let activations: Vec<f64> = (0..taps)
                .map(|i| 0.05 + 0.95 * ((case * 17 + i) as f64 * 0.377).cos().abs())
                .collect();
            let mut arm = Arm::new(config).unwrap();
            arm.load_weights(&weights, &mapper).unwrap();
            let table = RingTable::new(config, &mapper, &noise).unwrap();
            let staged: Vec<u8> = weights.iter().map(|&w| table.stage(w).unwrap()).collect();
            let taps = table.taps(&staged);
            let p_in = config.channel_power.get();
            let per_ring: Vec<(f64, f64)> = (0..WINDOWS)
                .map(|w| per_ring_rails(&arm, &activations, &source.stream(0, 0, w)))
                .collect();
            let rails: Vec<(f64, f64)> = (0..WINDOWS)
                .map(|w| {
                    let stream = source.stream(0, 1, w);
                    rail_powers_at(&taps.taps[..taps.len], &activations, p_in, &stream, 0)
                })
                .collect();
            let (a, b) = (rail_stats(&per_ring), rail_stats(&rails));
            let n = WINDOWS as f64;
            for r in 0..2 {
                let se = ((a.var[r] + b.var[r]) / n).sqrt();
                assert!(
                    (a.mean[r] - b.mean[r]).abs() <= 5.0 * se,
                    "case {case} rail {r}: mean {} vs {} (se {se})",
                    a.mean[r],
                    b.mean[r]
                );
                let se =
                    ((a.fourth[r] - a.var[r].powi(2) + b.fourth[r] - b.var[r].powi(2)) / n).sqrt();
                assert!(
                    (a.var[r] - b.var[r]).abs() <= 5.0 * se,
                    "case {case} rail {r}: variance {} vs {} (se {se})",
                    a.var[r],
                    b.var[r]
                );
            }
            let se = ((a.var[0] * a.var[1] + b.var[0] * b.var[1]) / n).sqrt();
            assert!(
                (a.cov - b.cov).abs() <= 5.0 * se,
                "case {case}: covariance {} vs {} (se {se})",
                a.cov,
                b.cov
            );
        }
    }

    proptest! {
        #[test]
        fn mac_bounded_by_operand_count(
            seed in 0u64..100,
            n in 1usize..=9,
        ) {
            let mut src = NoiseSource::seeded(seed, NoiseConfig::noiseless());
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed as f64 + i as f64) * 0.37).sin())
                .collect();
            let activations: Vec<f64> = (0..n)
                .map(|i| (((seed + 3) as f64 + i as f64) * 0.21).sin().abs())
                .collect();
            let arm = loaded_arm(&weights, 4);
            let out = arm.mac(&activations, &mut src).unwrap();
            prop_assert!(out.value.abs() <= n as f64 + 1e-9);
        }
    }
}
