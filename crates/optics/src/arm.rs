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
//! Every MAC path in this module — [`Arm::mac_indexed`] and
//! [`ArmSnapshot::mac_indexed`] (the fused fast path), [`Arm::mac`]
//! (general [`NoiseModel`] evaluation), [`RingTable::mac`] and
//! [`Arm::mac_reference`] (the pre-optimisation port) — folds four
//! rail-moment accumulators, `Σa·α` and `Σa²·β` for each rail, into
//! **[`LANES`] fixed lanes** each (element `i` lands in lane
//! `i mod LANES`) and reduces them through one canonical tree:
//! `(l0 + l2) + (l1 + l3)`. Floating-point addition is not associative,
//! so the fold order is part of the wire-level bit-identity guarantee:
//! the parallel, sequential, batched, sharded, TCP and serving engines
//! all replay this exact tree and therefore the exact same bits. Do not
//! "simplify" the fold back to a single accumulator, and never let a
//! host vector width dictate a different lane count — [`LANES`] is a
//! contract constant, not a tuning knob.
//!
//! The coefficients are computed where weights are staged — per tap by
//! [`Arm::snapshot`], per code by [`RingTable::new`] — from the
//! [`NoiseConfig`] the caller passes in. The general paths compute them
//! on the fly through the same function, so every path produces the
//! same bits.
//!
//! # Where the time goes
//!
//! A 9-tap window costs nine multiply-adds into the mean lanes, nine
//! into the variance lanes, two square roots and three ziggurat draws.
//! Drawing per rail is the point of the model: two draws per ring made
//! the draws about two thirds of the MAC drain's host time. The fold
//! walks [`LANES`] taps at a time, so the sixteen accumulators stay in
//! registers and the four lanes run as independent add chains; a tap's
//! sign branch is predictable, because every window of a pass repeats
//! its arm's sign pattern. No vector kernel is involved.
//!
//! Measured on a 2-vCPU Intel Xeon host (AVX-512 tier), paper noise:
//! `perf_json`'s `mac_ns_per_ring` read 3.6–7.8 ns over eight runs
//! (11.4–22.9 ns over three with per-ring draws), and the
//! `mac_core_1024_rings` microbench 7.9 µs (18.3 µs).

use oisa_device::mr::{Microring, MrDesign, TuningOutcome};
use oisa_device::noise::{NoiseConfig, NoiseModel, NoiseStream};
use oisa_device::photodiode::{BalancedPhotodetector, PhotodiodeParams};
use oisa_device::simd::LANES;
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

/// Immutable snapshot of everything an arm-level MAC consumes: the
/// mapped weights, the precomputed per-ring gains and rail-moment
/// coefficients, the detector and the full-scale / dwell constants.
///
/// A snapshot is what lets evaluation outlive fabric mutation: the
/// batched convolution engine snapshots every pass's arms before the
/// next pass re-tunes the same physical rings. Both MAC entry points
/// are bit-identical to their [`Arm`] counterparts — they share the
/// same inner evaluation, not a re-implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmSnapshot {
    weights: Vec<MappedWeight>,
    ring_gain: Vec<f64>,
    /// Per-tap rail coefficients under `noise`.
    taps: Vec<RailTap>,
    noise: NoiseConfig,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

impl ArmSnapshot {
    /// The weights captured by this snapshot.
    #[must_use]
    pub fn weights(&self) -> &[MappedWeight] {
        &self.weights
    }

    /// Fused fast-path MAC over counter-addressed noise — bit-identical
    /// to [`Arm::mac_indexed`] on the arm this snapshot was taken from,
    /// reading the coefficients staged by [`Arm::snapshot`] instead of
    /// computing them.
    ///
    /// Activations must already be validated to `[0, 1]` by the caller,
    /// and `stream` must carry the [`NoiseConfig`] the snapshot was
    /// taken under.
    #[must_use]
    pub fn mac_indexed(&self, activations: &[f64], stream: &NoiseStream, base: u64) -> (f64, f64) {
        debug_assert!(activations.len() <= self.taps.len());
        debug_assert_eq!(stream.config(), &self.noise);
        let (noisy, power) = mac_indexed_core(
            &self.taps,
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            activations,
            stream,
            base,
        );
        (noisy / self.per_channel_full, power * self.dwell.get())
    }

    /// General MAC through any [`NoiseModel`] — bit-identical to
    /// [`Arm::mac`] on the arm this snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Same contract as [`Arm::mac`].
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        validate_activation_window(self.weights.len(), activations)?;
        let taps = rail_taps(&self.weights, &self.ring_gain, noise.config());
        Ok(mac_core(
            &taps[..self.weights.len()],
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            self.dwell,
            activations,
            noise,
        ))
    }
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
    /// Worst-case tuning latency of the last load.
    tuning_latency: Second,
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
            tuning_latency: Second::ZERO,
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

    /// Worst-case settling latency of the last load (rings tune in
    /// parallel).
    #[must_use]
    pub fn tuning_latency(&self) -> Second {
        self.tuning_latency
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
        let mut latency = Second::ZERO;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            let magnitude = mapped.get(i).map_or(0.0, |m| m.magnitude);
            let outcome = tune_to_magnitude(ring, magnitude)?;
            energy += outcome.energy;
            latency = latency.max(outcome.latency);
        }
        self.weights = mapped;
        self.tuning_energy = energy;
        self.tuning_latency = latency;
        // Crosstalk and waveguide attenuation depend only on the loaded
        // weights (ring detunings) and the channel spacing, so fold them
        // into one per-ring gain here instead of re-evaluating two
        // Lorentzian tails per channel on every MAC.
        let spacing = self.plan.spacing();
        let n = self.weights.len();
        self.ring_gain = (0..n)
            .map(|i| {
                tap_gain(
                    i,
                    n,
                    self.config.crosstalk,
                    self.path_transmission,
                    |j| self.rings[j].crosstalk_transmission(spacing),
                    |j| self.rings[j].crosstalk_transmission(-spacing),
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
        let taps = rail_taps(&self.weights, &self.ring_gain, noise.config());
        Ok(mac_core(
            &taps[..self.weights.len()],
            &self.detector,
            self.per_channel_full,
            self.config.channel_power.get(),
            self.dwell,
            activations,
            noise,
        ))
    }

    /// Captures the compute-relevant state of this arm as an immutable
    /// [`ArmSnapshot`]: the mapped weights, the precomputed per-ring
    /// gains, each tap's rail coefficients under `noise`, and the
    /// detector / full-scale / dwell constants. Evaluating the snapshot
    /// is bit-identical to evaluating the arm under `noise`, and stays
    /// valid after the arm is re-tuned with new weights.
    #[must_use]
    pub fn snapshot(&self, noise: &NoiseConfig) -> ArmSnapshot {
        let taps = rail_taps(&self.weights, &self.ring_gain, noise);
        ArmSnapshot {
            weights: self.weights.clone(),
            ring_gain: self.ring_gain.clone(),
            taps: taps[..self.weights.len()].to_vec(),
            noise: *noise,
            detector: self.detector,
            per_channel_full: self.per_channel_full,
            channel_power: self.config.channel_power.get(),
            dwell: self.dwell,
        }
    }

    /// Fused fast-path MAC for the accelerator's inner loop: the two
    /// rail draws and the detector draw are addressed on `stream` by
    /// explicit counters `base`, `base + 1` and `base + 2`
    /// ([`COUNTER_STRIDE`]), and no [`MacResult`] is built. The rail
    /// coefficients are computed on the fly from `stream`'s config;
    /// [`ArmSnapshot::mac_indexed`] reads them precomputed instead.
    ///
    /// Returns `(value, optical_energy_joules)`. Activations must
    /// already be validated to `[0, 1]` by the caller — the accelerator
    /// validates each encoded frame once instead of once per window.
    ///
    /// Bit-identical to [`Arm::mac`] driven by a
    /// [`oisa_device::noise::StreamCursor`] over the same stream and
    /// base counter 0.
    #[must_use]
    pub fn mac_indexed(&self, activations: &[f64], stream: &NoiseStream, base: u64) -> (f64, f64) {
        debug_assert!(activations.len() <= self.weights.len());
        let taps = rail_taps(&self.weights, &self.ring_gain, stream.config());
        let (noisy, power) = mac_indexed_core(
            &taps[..self.weights.len()],
            &self.detector,
            self.per_channel_full,
            self.config.channel_power.get(),
            activations,
            stream,
            base,
        );
        (noisy / self.per_channel_full, power * self.dwell.get())
    }

    /// Faithful port of the pre-optimisation MAC: validates inside the
    /// loop, re-derives both crosstalk Lorentzians and the rail
    /// coefficients per channel from ring state, recomputes the
    /// full-scale and time-of-flight terms per call. Kept as the
    /// wall-clock baseline for the performance benchmarks and as a
    /// physics cross-check (it produces the same values as [`Arm::mac`]
    /// given the same noise draws).
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
            taps[i] = RailTap::new(
                xt * self.path_transmission,
                ring_moments(w.magnitude, &cfg),
                w.negative,
            );
        }
        // The same rail evaluation and draw order as `mac_core`: the
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

    /// Checks activation count and range, reporting the first offending
    /// index.
    fn validate_activations(&self, activations: &[f64]) -> Result<()> {
        validate_activation_window(self.weights.len(), activations)
    }

    /// Optical time of flight along the arm (group velocity c/n_g).
    #[must_use]
    pub fn time_of_flight(&self) -> Second {
        let v = oisa_units::SPEED_OF_LIGHT_M_PER_S / self.config.ring.group_index;
        Second::new(self.config.length.get() / v)
    }

    /// The WDM channel plan used by this arm.
    #[must_use]
    pub fn channel_plan(&self) -> &ChannelPlan {
        &self.plan
    }
}

/// Code values a staged weight byte holds: seven code bits, with the
/// sign in the eighth ([`RingTable::stage`]).
const STAGED_CODES: usize = 1 << 7;

/// Sign bit of a staged weight byte: set for the negative waveguide.
const STAGED_NEGATIVE: u8 = 1 << 7;

/// Per-code ring table: stages dense-layer weights as one byte each and
/// evaluates chunks of them without an arm.
///
/// A [`Microring`]'s state is its absolute detuning, and the detuning
/// [`Arm::load_weights`] gives a ring depends only on its weight's
/// quantisation code, so the crosstalk a ring imposes on its
/// neighbours is a function of that code alone — and so are its
/// transmission moments under a fixed [`NoiseConfig`]. The table tunes
/// one fresh ring per code through the calls `load_weights` makes and
/// keeps its two crosstalk transmissions and its rail moments, plus the
/// arm design's waveguide, detector, full-scale and dwell constants.
///
/// [`RingTable::stage`] quantises a weight once, into a byte holding
/// its code and sign. [`RingTable::mac`] then reads a chunk of staged
/// bytes, forms each tap's gain from its in-chunk neighbours' codes,
/// scales its code's moments by it and runs the fused counter-addressed
/// core the convolution drain uses — no heap allocation, no mutable
/// state and no fabric access, so any number of threads can evaluate
/// chunks against one table.
#[derive(Debug, Clone)]
pub struct RingTable<'a> {
    mapper: &'a WeightMapper,
    /// `crosstalk_transmission(spacing)` of a ring holding each code:
    /// applied to tap `i` when that ring is its neighbour `i − 1`.
    xt_prev: Vec<f64>,
    /// `crosstalk_transmission(−spacing)` of a ring holding each code:
    /// applied to tap `i` when that ring is its neighbour `i + 1`.
    xt_next: Vec<f64>,
    /// [`ring_moments`] of each code's magnitude under `noise`.
    moments: Vec<(f64, f64)>,
    noise: NoiseConfig,
    crosstalk: bool,
    path_transmission: f64,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

impl<'a> RingTable<'a> {
    /// Builds the table for arms of design `config` loaded through
    /// `mapper`, evaluated under `noise`: one ring tuning and one
    /// moment evaluation per code (16 at 4 bits).
    ///
    /// # Errors
    ///
    /// * [`OpticsError::CapacityExceeded`] when `mapper` has more codes
    ///   than a staged byte holds (128).
    /// * [`OpticsError::Device`] when the arm design or a ring tuning
    ///   is rejected.
    pub fn new(config: ArmConfig, mapper: &'a WeightMapper, noise: &NoiseConfig) -> Result<Self> {
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
        let mut xt_prev = Vec::with_capacity(codes);
        let mut xt_next = Vec::with_capacity(codes);
        for &magnitude in mapper.levels() {
            let mut ring = Microring::new(config.ring)?;
            tune_to_magnitude(&mut ring, magnitude)?;
            xt_prev.push(ring.crosstalk_transmission(spacing));
            xt_next.push(ring.crosstalk_transmission(-spacing));
        }
        Ok(Self {
            mapper,
            xt_prev,
            xt_next,
            moments: mapper
                .levels()
                .iter()
                .map(|&m| ring_moments(m, noise))
                .collect(),
            noise: *noise,
            crosstalk: config.crosstalk,
            path_transmission: arm.path_transmission,
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

    /// Evaluates a chunk of bytes staged by [`RingTable::stage`]
    /// against `activations`, drawing noise from `stream` at base
    /// counter 0 — bit-identical to [`Arm::load_weights`] of the same
    /// weights on an idle arm of the table's design followed by
    /// [`Arm::mac`] under `stream.cursor()`, errors included.
    ///
    /// `stream` must carry the [`NoiseConfig`] the table was built
    /// under.
    ///
    /// # Errors
    ///
    /// * [`OpticsError::CapacityExceeded`] for more than
    ///   [`RINGS_PER_ARM`] weights.
    /// * [`OpticsError::InvalidParameter`] for more activations than
    ///   weights, an activation outside `[0, 1]`, or a byte holding a
    ///   code the table's mapper does not have.
    pub fn mac(
        &self,
        staged: &[u8],
        activations: &[f64],
        stream: &NoiseStream,
    ) -> Result<MacResult> {
        debug_assert_eq!(stream.config(), &self.noise);
        let n = staged.len();
        if n > RINGS_PER_ARM {
            return Err(OpticsError::CapacityExceeded {
                capacity: RINGS_PER_ARM,
                requested: n,
            });
        }
        validate_activation_window(n, activations)?;
        let mut codes = [0usize; RINGS_PER_ARM];
        for (c, &byte) in codes.iter_mut().zip(staged) {
            *c = usize::from(byte & !STAGED_NEGATIVE);
            if *c >= self.moments.len() {
                return Err(OpticsError::InvalidParameter(format!(
                    "staged code {c} outside the table's {} codes",
                    self.moments.len()
                )));
            }
        }
        let mut taps = [RailTap::PARKED; RINGS_PER_ARM];
        for (i, tap) in taps[..n].iter_mut().enumerate() {
            let gain = tap_gain(
                i,
                n,
                self.crosstalk,
                self.path_transmission,
                |j| self.xt_prev[codes[j]],
                |j| self.xt_next[codes[j]],
            );
            *tap = RailTap::new(
                gain,
                self.moments[codes[i]],
                staged[i] & STAGED_NEGATIVE != 0,
            );
        }
        let (noisy, power) = mac_indexed_core(
            &taps[..n],
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            activations,
            stream,
            0,
        );
        Ok(MacResult {
            value: noisy / self.per_channel_full,
            raw_current: noisy,
            latency: self.dwell,
            optical_energy: Watt::new(power) * self.dwell,
        })
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

/// Crosstalk × waveguide gain of tap `i` in an `n`-tap window: the
/// Lorentzian tail of neighbour `i − 1` (`prev`), then of neighbour
/// `i + 1` (`next`), then the path transmission — one product order
/// shared by [`Arm::load_weights`] and [`RingTable::mac`]. Only
/// neighbours inside the window count.
#[inline]
fn tap_gain(
    i: usize,
    n: usize,
    crosstalk: bool,
    path_transmission: f64,
    prev: impl Fn(usize) -> f64,
    next: impl Fn(usize) -> f64,
) -> f64 {
    let mut xt = 1.0;
    if crosstalk {
        if i > 0 {
            xt *= prev(i - 1);
        }
        if i + 1 < n {
            xt *= next(i + 1);
        }
    }
    xt * path_transmission
}

/// Checks activation count against `loaded` weights and the `[0, 1]`
/// range, reporting the first offending index — shared by [`Arm`],
/// [`ArmSnapshot`] and [`RingTable`] so all reject identically.
fn validate_activation_window(loaded: usize, activations: &[f64]) -> Result<()> {
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

/// One tap's rail coefficients: its ring adds `a·α` to its rail's mean
/// and `a²·β` to its rail's variance (module docs), with
/// `α = gain·E[t′]` and `β = gain²·((1 + σv²)·E[t′²] − E[t′]²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RailTap {
    alpha: f64,
    beta: f64,
    negative: bool,
}

impl RailTap {
    /// Filler for the unused slots of a fixed-size tap array.
    const PARKED: Self = Self {
        alpha: 0.0,
        beta: 0.0,
        negative: false,
    };

    /// Scales a ring's [`ring_moments`] by its tap's crosstalk ×
    /// waveguide gain — the one product order every path shares.
    #[inline]
    fn new(gain: f64, (mean, var): (f64, f64), negative: bool) -> Self {
        Self {
            alpha: gain * mean,
            beta: gain * gain * var,
            negative,
        }
    }
}

/// The [`RailTap`]s of `weights` under per-ring gains `ring_gain` and
/// `noise`, computed on the fly; slots past `weights.len()` stay
/// parked.
fn rail_taps(
    weights: &[MappedWeight],
    ring_gain: &[f64],
    noise: &NoiseConfig,
) -> [RailTap; RINGS_PER_ARM] {
    let mut taps = [RailTap::PARKED; RINGS_PER_ARM];
    for ((tap, w), &gain) in taps.iter_mut().zip(weights).zip(ring_gain) {
        *tap = RailTap::new(gain, ring_moments(w.magnitude, noise), w.negative);
    }
    taps
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
    /// The walk goes [`LANES`] elements at a time so every lane index is
    /// a constant and the sixteen accumulators stay in registers; a
    /// runtime lane index spills them to memory and costs about a third
    /// of the MAC.
    #[inline(always)]
    fn fold(taps: &[RailTap], activations: &[f64]) -> Self {
        let mut pos_mean = [0.0f64; LANES];
        let mut pos_var = [0.0f64; LANES];
        let mut neg_mean = [0.0f64; LANES];
        let mut neg_var = [0.0f64; LANES];
        let mut add = |lane: usize, tap: &RailTap, a: f64| {
            let (mean, var) = (a * tap.alpha, a * a * tap.beta);
            if tap.negative {
                neg_mean[lane] += mean;
                neg_var[lane] += var;
            } else {
                pos_mean[lane] += mean;
                pos_var[lane] += var;
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
        Self {
            pos_mean: reduce_lanes(pos_mean),
            pos_var: reduce_lanes(pos_var),
            neg_mean: reduce_lanes(neg_mean),
            neg_var: reduce_lanes(neg_var),
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

/// The general MAC evaluation shared bit-for-bit by [`Arm::mac`] and
/// [`ArmSnapshot::mac`]: rail moments → one draw per rail → BPD
/// subtraction with detector noise → loss-normalised signed result.
/// Both rail draws are taken even when a rail's variance is zero, so a
/// sequential [`NoiseModel`] stays on the fused path's counter layout.
fn mac_core<N: NoiseModel>(
    taps: &[RailTap],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    dwell: Second,
    activations: &[f64],
    noise: &mut N,
) -> MacResult {
    let rails = RailSums::fold(taps, activations);
    let (g_pos, g_neg) = (noise.standard_normal(), noise.standard_normal());
    let (p_pos, p_neg) = rails.powers(channel_power_w, g_pos, g_neg);
    let diff = detector.difference_current(Watt::new(p_pos), Watt::new(p_neg));
    // Full scale: all channels at activation 1 with weight magnitude 1
    // on one waveguide.
    let full_scale = per_channel_full * activations.len().max(1) as f64;
    let noisy = noise.detector(diff.get(), full_scale);
    // Loss-normalised value in weight·activation units.
    let value = noisy / per_channel_full;
    MacResult {
        value,
        raw_current: noisy,
        latency: dwell,
        optical_energy: Watt::new(p_pos + p_neg) * dwell,
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

/// The fused counter-addressed MAC shared bit-for-bit by
/// [`Arm::mac_indexed`], [`ArmSnapshot::mac_indexed`] and
/// [`RingTable::mac`]: the positive rail draws counter `base`, the
/// negative rail `base + 1` and the detector `base + 2`, for every
/// window length. Returns the noisy BPD difference current and the
/// optical power summed over both rails; callers normalise the first by
/// the full-scale current and charge the second over their dwell.
///
/// A rail whose variance is zero skips its draw. That changes no bit:
/// the general path's draw would be multiplied by `√0`, adding an exact
/// `±0.0` to a non-negative mean.
fn mac_indexed_core(
    taps: &[RailTap],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    activations: &[f64],
    stream: &NoiseStream,
    base: u64,
) -> (f64, f64) {
    let (p_pos, p_neg) = rail_powers_at(taps, activations, channel_power_w, stream, base);
    let diff = detector.difference_current(Watt::new(p_pos), Watt::new(p_neg));
    let full_scale = per_channel_full * activations.len().max(1) as f64;
    let noisy = stream.detector_at(base + 2, diff.get(), full_scale);
    (noisy, p_pos + p_neg)
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
    use oisa_device::noise::{NoiseConfig, NoiseSource};
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
        assert!(arm.tuning_latency().get() > 0.0);
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
        // (explicit counters, coefficients computed per call), the
        // general path behind a sequential cursor, and the
        // pre-optimisation reference port.
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0]; // ternary-ish, with zeros
        let arm = loaded_arm(&w, 4);
        let source = NoiseSource::seeded(99, NoiseConfig::paper_default());
        let stream = source.stream(0, 3, 17);

        let (fast_value, fast_energy) = arm.mac_indexed(&a, &stream, 0);
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
        // window length — 0, shorter than the loaded weights, or a full
        // arm. With the rails noiseless, the fused value is the
        // noiseless value plus exactly that draw.
        let w10 = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5, 0.3];
        let arm10 = loaded_arm(&w10, 4);
        let arm9 = loaded_arm(&w10[..9], 4);
        let detector_only = NoiseConfig {
            detector: 0.005,
            ..NoiseConfig::noiseless()
        };
        let clean = quiet().stream(0, 1, 9);
        let stream = NoiseSource::seeded(13, detector_only).stream(0, 1, 9);
        let base = 7;
        for m in 0..=RINGS_PER_ARM {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (value, _) = arm10.mac_indexed(&a, &stream, base);
            let expected = arm10.mac_indexed(&a, &clean, base).0
                + 0.005 * m.max(1) as f64 * stream.gaussian_at(base + 2);
            assert!(
                (value - expected).abs() < 1e-12,
                "m={m}: {value} vs {expected}"
            );
        }
        // Under paper noise all three MAC paths agree on every length,
        // and the same short window on an arm holding fewer weights
        // replays the same draws: no counter tracks `weights.len()`.
        // (m ≤ 8 keeps the last evaluated ring's crosstalk
        // neighbourhood identical between the 9- and 10-weight arms.)
        let stream = NoiseSource::seeded(13, NoiseConfig::paper_default()).stream(0, 1, 9);
        for m in 0..=RINGS_PER_ARM {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (fast, fast_energy) = arm10.mac_indexed(&a, &stream, 0);
            let general = arm10.mac(&a, &mut stream.cursor()).unwrap();
            let reference = arm10.mac_reference(&a, &mut stream.cursor()).unwrap();
            assert_eq!(fast, general.value, "m={m}");
            assert_eq!(fast, reference.value, "m={m}");
            assert_eq!(fast_energy, general.optical_energy.get(), "m={m}");
            if m <= 8 {
                assert_eq!(fast, arm9.mac_indexed(&a, &stream, 0).0, "m={m}");
            }
        }
    }

    #[test]
    fn noiseless_mac_draws_nothing() {
        // Every rail variance is 0 and the detector σ is 0, so no
        // draw enters the result: any two streams give the same bits.
        let arm = loaded_arm(&[0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5], 4);
        let snap = arm.snapshot(&NoiseConfig::noiseless());
        let a = [1.0, 0.2, 0.5, 0.0, 1.0, 0.5, 0.9, 0.022, 1.0];
        let one = quiet().stream(0, 1, 2);
        let other = NoiseSource::seeded(77, NoiseConfig::noiseless()).stream(5, 6, 7);
        assert_eq!(
            snap.mac_indexed(&a, &one, 0),
            snap.mac_indexed(&a, &other, 3)
        );
        for w in snap.taps.iter() {
            assert_eq!(w.beta, 0.0);
        }
    }

    #[test]
    fn snapshot_macs_bit_identical_to_arm() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0];
        let arm = loaded_arm(&w, 4);
        let snap = arm.snapshot(&NoiseConfig::paper_default());
        let source = NoiseSource::seeded(7, NoiseConfig::paper_default());
        let stream = source.stream(1, 2, 33);

        assert_eq!(
            arm.mac_indexed(&a, &stream, 5),
            snap.mac_indexed(&a, &stream, 5)
        );
        assert_eq!(
            arm.mac(&a, &mut stream.cursor()).unwrap(),
            snap.mac(&a, &mut stream.cursor()).unwrap()
        );
        assert_eq!(snap.weights(), arm.weights());
    }

    #[test]
    fn snapshot_outlives_arm_retuning() {
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        arm.load_weights(&[0.8; 9], &mapper).unwrap();
        let snap = arm.snapshot(&NoiseConfig::noiseless());
        let a = [1.0; 9];
        let before = snap.mac(&a, &mut quiet()).unwrap();
        // Re-tune the physical arm; the snapshot must keep replaying the
        // old weights.
        arm.load_weights(&[-0.8; 9], &mapper).unwrap();
        let after_snap = snap.mac(&a, &mut quiet()).unwrap();
        let after_arm = arm.mac(&a, &mut quiet()).unwrap();
        assert_eq!(before, after_snap);
        assert!(after_arm.value < 0.0 && after_snap.value > 0.0);
    }

    #[test]
    fn snapshot_validates_like_arm() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let snap = arm.snapshot(&NoiseConfig::noiseless());
        assert!(snap.mac(&[1.5; 9], &mut quiet()).is_err());
        assert!(snap.mac(&[1.0; 10], &mut quiet()).is_err());
    }

    #[test]
    fn ring_table_matches_a_freshly_loaded_arm() {
        // Every ladder the fabric uses, every resolution, crosstalk on
        // and off, every chunk length up to a full arm: staging a chunk
        // and evaluating the staged bytes equals loading the chunk onto
        // an arm and evaluating it under a cursor, bit for bit, and a
        // re-loaded arm never remembers its previous chunk.
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
                        arm.load_weights(&w, &mapper).unwrap();
                        assert_eq!(
                            table.mac(&staged, &a, &stream).unwrap(),
                            arm.mac(&a, &mut stream.cursor()).unwrap(),
                            "crosstalk {crosstalk}, {bits} bits, {n} weights"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_table_rejects_like_a_loaded_arm() {
        let mapper = WeightMapper::paper(4).unwrap();
        let table = RingTable::new(
            ArmConfig::paper_default(),
            &mapper,
            &NoiseConfig::noiseless(),
        )
        .unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        let stream = quiet().stream(0, 0, 0);
        let staged = [table.stage(0.5).unwrap(); RINGS_PER_ARM + 1];
        assert!(matches!(
            table.mac(&staged, &[0.5; 9], &stream),
            Err(OpticsError::CapacityExceeded { .. })
        ));
        for bad in [1.5, -1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                table.stage(bad).unwrap_err().to_string(),
                arm.load_weights(&[0.1, bad, 0.1], &mapper)
                    .unwrap_err()
                    .to_string()
            );
        }
        assert!(table.mac(&staged[..3], &[0.5; 4], &stream).is_err());
        let mut acts = [0.5; 9];
        acts[6] = 1.5;
        arm.load_weights(&[0.5; 9], &mapper).unwrap();
        assert_eq!(
            table
                .mac(&staged[..9], &acts, &stream)
                .unwrap_err()
                .to_string(),
            arm.mac(&acts, &mut quiet()).unwrap_err().to_string()
        );
        // A byte no 4-bit table stages: code 16, past codes 0..=15.
        assert!(table.mac(&[16], &[0.5], &stream).is_err());
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
            let snap = arm.snapshot(&noise);
            let p_in = config.channel_power.get();
            let per_ring: Vec<(f64, f64)> = (0..WINDOWS)
                .map(|w| per_ring_rails(&arm, &activations, &source.stream(0, 0, w)))
                .collect();
            let rails: Vec<(f64, f64)> = (0..WINDOWS)
                .map(|w| rail_powers_at(&snap.taps, &activations, p_in, &source.stream(0, 1, w), 0))
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
