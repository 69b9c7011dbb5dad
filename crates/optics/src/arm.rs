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
//! # Performance notes: the lane-accumulator determinism contract
//!
//! Every MAC path in this module — [`Arm::mac_indexed`] (the fused
//! fast path), [`Arm::mac`] (general [`NoiseModel`] evaluation) and
//! [`Arm::mac_reference`] (the pre-optimisation port) — accumulates
//! each detector rail into **[`LANES`] fixed lanes** (element `i`
//! lands in lane `i mod LANES`) and reduces them through one canonical
//! tree: `(l0 + l2) + (l1 + l3)`. Floating-point addition is not
//! associative, so the fold order is part of the wire-level
//! bit-identity guarantee: the parallel, sequential, batched, sharded,
//! TCP and serving engines all replay this exact tree and therefore
//! the exact same bits. Do not "simplify" the fold back to a single
//! accumulator, and never let a host vector width dictate a different
//! lane count — [`LANES`] is a contract constant, not a tuning knob.
//!
//! # Where vectorisation pays (and where it doesn't)
//!
//! Two MAC kernels share the lane contract:
//!
//! * **Per-window** ([`ArmSnapshot::mac_indexed`]): one output
//!   position, scalar SplitMix64 mixing, `activation == 0` skipped by
//!   an early `continue`. A zero's counters are positional (element
//!   `i` always owns `base + 2i`/`base + 2i + 1`), so skipping draws
//!   is bit-identical to drawing and multiplying by zero. Paper-config
//!   frames never take the skip: the VAM encodes dark pixels to the
//!   VCSEL's NRZ floor (≈ 0.022), not to 0, so every window draws all
//!   its taps.
//! * **Across-window ×4** ([`ArmSnapshot::mac_indexed_x4`]): [`LANES`]
//!   consecutive output positions evaluate in lockstep against one
//!   [`StreamQuad`] — same counters, same weights, the streams differ
//!   only in key, so one batched key-pair mix
//!   (`mix64_key_pairs`, AVX2/AVX-512 dispatched when the `simd`
//!   cargo feature is on) yields both draws for all four windows. The
//!   vector kernels are pure integer code and the per-lane ziggurat
//!   finish performs the identical IEEE operations in the identical
//!   order as the scalar fallback, so toggling the feature, pinning
//!   `OISA_SIMD_TIER`, or mixing vector tiers across a sharded fleet
//!   never changes a single output bit — only wall-clock.
//!
//! Measured on the bench host (Skylake-SP-class, AVX-512 tier, paper
//! noise config, `cargo bench -p oisa_bench`): a 9-tap per-window MAC
//! runs ≈ 80–110 ns and the chained fold sits at ≈ 11 ns/ring
//! (`mac_core_{72,256,1024}_rings`, `perf_json`'s `mac_ns_per_ring`
//! block). The honest finding: **vector integer mixing does not beat
//! scalar mixing here.** A batch of 4 draws costs ≈ 42 ns vectorised
//! vs ≈ 15–23 ns as 4 scalar draws (`gaussian_at_lanes` vs
//! `gaussian_at_4_scalar`), because 64-bit vector multiplies are
//! microcoded/emulated on this tier while the three scalar `imul`s per
//! draw pipeline perfectly across 14+ independent draws, and the
//! scalar ziggurat finish dominates either way. At the frame level ×4
//! measured ≈ 110–127 ns/window vs 78–110 ns for the per-window fold,
//! so the engines stay on the per-window fold — the batched kernel
//! remains available, tested bit-identical, for hosts with fast
//! `vpmullq`. Regenerate `bench/baseline.json` with `perf_json` after
//! touching anything in this file.

use oisa_device::mr::{Microring, MrDesign, TuningOutcome};
use oisa_device::noise::{NoiseModel, NoiseStream, StreamQuad};
use oisa_device::photodiode::{BalancedPhotodetector, PhotodiodeParams};
use oisa_device::simd::LANES;
use oisa_device::waveguide::{ChannelPlan, LossBudget, OpticalPath};
use oisa_units::{Joule, Meter, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::weights::{MappedWeight, WeightMapper};
use crate::{OpticsError, Result};

/// Number of microrings per arm (paper §III-B).
pub const RINGS_PER_ARM: usize = 10;

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
/// mapped weights, the precomputed per-ring gains, the detector and the
/// full-scale / dwell constants.
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
    /// to [`Arm::mac_indexed`] on the arm this snapshot was taken from.
    ///
    /// Activations must already be validated to `[0, 1]` by the caller.
    #[must_use]
    pub fn mac_indexed(&self, activations: &[f64], stream: &NoiseStream, base: u64) -> (f64, f64) {
        debug_assert!(activations.len() <= self.weights.len());
        let (noisy, power) = mac_indexed_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            activations,
            stream,
            base,
        );
        (noisy / self.per_channel_full, power * self.dwell.get())
    }

    /// Across-window fused MAC: evaluates this snapshot's weight
    /// window against [`LANES`] activation windows in lockstep, one
    /// per lane of `quad` — bit-identical per window to
    /// [`ArmSnapshot::mac_indexed`] with `quad.lane(l)` as the stream.
    ///
    /// `activations` is element-major: `activations[i * LANES + l]`
    /// holds element `i` of window `l`, with `m` elements per window
    /// (`activations.len() == m * LANES`). Adjacent convolution output
    /// windows make this layout a cheap gather — element `i` of
    /// [`LANES`] consecutive windows are [`LANES`] consecutive frame
    /// pixels.
    ///
    /// Returns the per-window `(values, optical energies)`.
    #[must_use]
    pub fn mac_indexed_x4(
        &self,
        activations: &[f64],
        m: usize,
        quad: &StreamQuad,
        base: u64,
    ) -> ([f64; LANES], [f64; LANES]) {
        debug_assert_eq!(activations.len(), m * LANES);
        debug_assert!(m <= self.weights.len());
        mac_indexed_x4_core(&MacX4Args {
            weights: &self.weights,
            ring_gain: &self.ring_gain,
            detector: &self.detector,
            per_channel_full: self.per_channel_full,
            channel_power_w: self.channel_power,
            dwell_s: self.dwell.get(),
            activations,
            m,
            quad,
            base,
        })
    }

    /// General MAC through any [`NoiseModel`] — bit-identical to
    /// [`Arm::mac`] on the arm this snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Same contract as [`Arm::mac`].
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        validate_activation_window(self.weights.len(), activations)?;
        Ok(mac_core(
            &self.weights,
            &self.ring_gain,
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
    /// The chain models: VCSEL RIN on each channel → ring transmission
    /// (with drift) → waveguide losses → accumulation on the +/−
    /// waveguides → BPD subtraction with detector noise → loss-normalised
    /// signed result. Crosstalk and waveguide attenuation come from the
    /// per-ring gains precomputed at [`Arm::load_weights`] time.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when activation count
    /// exceeds the loaded weight count or values leave `[0, 1]`; all
    /// activations are validated up front, so the error names the first
    /// offending index and no partial evaluation happens.
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        self.validate_activations(activations)?;
        Ok(mac_core(
            &self.weights,
            &self.ring_gain,
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
    /// gains and the detector / full-scale / dwell constants. Evaluating
    /// the snapshot is bit-identical to evaluating the arm, and stays
    /// valid after the arm is re-tuned with new weights.
    #[must_use]
    pub fn snapshot(&self) -> ArmSnapshot {
        ArmSnapshot {
            weights: self.weights.clone(),
            ring_gain: self.ring_gain.clone(),
            detector: self.detector,
            per_channel_full: self.per_channel_full,
            channel_power: self.config.channel_power.get(),
            dwell: self.dwell,
        }
    }

    /// Fused fast-path MAC for the accelerator's inner loop: draws are
    /// addressed on `stream` by explicit counters starting at `base`
    /// (channel `i` uses `base + 2i` / `base + 2i + 1`, the detector
    /// `base + 2m` where `m = activations.len()`), nonzero elements
    /// are compacted and evaluated [`LANES`] at a time with batched
    /// Gaussian draws and branchless rail masks (a zero activation
    /// would contribute an exact `+0.0`, and its counters stay
    /// addressed to it, so skipping it changes no output bit), and no
    /// [`MacResult`] is built.
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
        let (noisy, power) = mac_indexed_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.config.channel_power.get(),
            activations,
            stream,
            base,
        );
        (noisy / self.per_channel_full, power * self.dwell.get())
    }

    /// Counter stride one MAC of `m` activations consumes on a stream:
    /// two draws per channel plus the detector draw.
    #[must_use]
    pub fn counter_stride(m: usize) -> u64 {
        2 * m as u64 + 1
    }

    /// Faithful port of the pre-optimisation MAC: validates inside the
    /// loop, re-derives both crosstalk Lorentzians per channel from ring
    /// state, recomputes the full-scale and time-of-flight terms per
    /// call. Kept as the wall-clock baseline for the performance
    /// benchmarks and as a physics cross-check (it produces the same
    /// values as [`Arm::mac`] given the same noise draws).
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
        // The rail fold follows the canonical lane order (module docs):
        // the reference port must stay bit-equal to the optimised paths.
        let mut pos = [0.0f64; LANES];
        let mut neg = [0.0f64; LANES];
        let p_in = self.config.channel_power.get();
        let spacing = self.plan.spacing();
        for (i, (a, w)) in activations.iter().zip(&self.weights).enumerate() {
            if !(0.0..=1.0).contains(a) {
                return Err(OpticsError::InvalidParameter(format!(
                    "activation {a} outside [0, 1]"
                )));
            }
            let launched = noise.vcsel(p_in * a);
            let t = noise.mr_transmission(w.magnitude);
            let mut xt = 1.0;
            if self.config.crosstalk {
                if i > 0 {
                    xt *= self.rings[i - 1].crosstalk_transmission(spacing);
                }
                if i + 1 < self.weights.len() {
                    xt *= self.rings[i + 1].crosstalk_transmission(-spacing);
                }
            }
            let arrived = launched * t * (xt * self.path_transmission);
            if w.negative {
                neg[i % LANES] += arrived;
            } else {
                pos[i % LANES] += arrived;
            }
        }
        let p_pos = reduce_lanes(pos);
        let p_neg = reduce_lanes(neg);
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
/// neighbours is a function of that code alone. The table tunes one
/// fresh ring per code through the calls `load_weights` makes and keeps
/// its two crosstalk transmissions, plus the arm design's waveguide,
/// detector, full-scale and dwell constants.
///
/// [`RingTable::stage`] quantises a weight once, into a byte holding
/// its code and sign. [`RingTable::mac`] then reads a chunk of staged
/// bytes, forms each tap's gain from its in-chunk neighbours' codes
/// and runs the fused counter-addressed core the convolution drain
/// uses — no heap allocation, no mutable state and no fabric access,
/// so any number of threads can evaluate chunks against one table.
#[derive(Debug, Clone)]
pub struct RingTable<'a> {
    mapper: &'a WeightMapper,
    /// `crosstalk_transmission(spacing)` of a ring holding each code:
    /// applied to tap `i` when that ring is its neighbour `i − 1`.
    xt_prev: Vec<f64>,
    /// `crosstalk_transmission(−spacing)` of a ring holding each code:
    /// applied to tap `i` when that ring is its neighbour `i + 1`.
    xt_next: Vec<f64>,
    crosstalk: bool,
    path_transmission: f64,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

impl<'a> RingTable<'a> {
    /// Builds the table for arms of design `config` loaded through
    /// `mapper`: one ring tuning per code (16 at 4 bits).
    ///
    /// # Errors
    ///
    /// * [`OpticsError::CapacityExceeded`] when `mapper` has more codes
    ///   than a staged byte holds (128).
    /// * [`OpticsError::Device`] when the arm design or a ring tuning
    ///   is rejected.
    pub fn new(config: ArmConfig, mapper: &'a WeightMapper) -> Result<Self> {
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
        let n = staged.len();
        if n > RINGS_PER_ARM {
            return Err(OpticsError::CapacityExceeded {
                capacity: RINGS_PER_ARM,
                requested: n,
            });
        }
        validate_activation_window(n, activations)?;
        let levels = self.mapper.levels();
        let mut weights = [MappedWeight {
            code: 0,
            magnitude: 0.0,
            negative: false,
        }; RINGS_PER_ARM];
        for (w, &byte) in weights.iter_mut().zip(staged) {
            let code = byte & !STAGED_NEGATIVE;
            let Some(&magnitude) = levels.get(usize::from(code)) else {
                return Err(OpticsError::InvalidParameter(format!(
                    "staged code {code} outside the table's {} codes",
                    levels.len()
                )));
            };
            *w = MappedWeight {
                code: u16::from(code),
                magnitude,
                negative: byte & STAGED_NEGATIVE != 0,
            };
        }
        let weights = &weights[..n];
        let mut gain = [0.0f64; RINGS_PER_ARM];
        for (i, g) in gain[..n].iter_mut().enumerate() {
            *g = tap_gain(
                i,
                n,
                self.crosstalk,
                self.path_transmission,
                |j| self.xt_prev[usize::from(weights[j].code)],
                |j| self.xt_next[usize::from(weights[j].code)],
            );
        }
        let (noisy, power) = mac_indexed_core(
            weights,
            &gain[..n],
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

/// The general MAC evaluation shared bit-for-bit by [`Arm::mac`] and
/// [`ArmSnapshot::mac`]: VCSEL RIN → ring transmission (with drift) →
/// precomputed per-ring gain → rail accumulation → BPD subtraction with
/// detector noise → loss-normalised signed result.
#[allow(clippy::too_many_arguments)]
fn mac_core<N: NoiseModel>(
    weights: &[MappedWeight],
    ring_gain: &[f64],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    dwell: Second,
    activations: &[f64],
    noise: &mut N,
) -> MacResult {
    // Draw order stays strictly element-sequential (VCSEL then drift,
    // element by element) for `StreamCursor` counter compatibility;
    // only the rail accumulation uses the canonical lane fold.
    let mut pos = [0.0f64; LANES];
    let mut neg = [0.0f64; LANES];
    for (i, (a, w)) in activations.iter().zip(weights).enumerate() {
        let launched = noise.vcsel(channel_power_w * a);
        let t = noise.mr_transmission(w.magnitude);
        let arrived = launched * t * ring_gain[i];
        if w.negative {
            neg[i % LANES] += arrived;
        } else {
            pos[i % LANES] += arrived;
        }
    }
    let p_pos = reduce_lanes(pos);
    let p_neg = reduce_lanes(neg);
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
/// [`RingTable::mac`]: channel `i` draws counters `base + 2i` /
/// `base + 2i + 1`, the detector draws `base + 2m` where
/// `m = activations.len()` — including when the activation window is
/// shorter than the loaded weights. Returns the noisy BPD difference
/// current and the optical power summed over both rails; callers
/// normalise the first by the full-scale current and charge the
/// second over their dwell.
///
/// Element `i` accumulates into rail lane `i mod LANES` and the lanes
/// reduce through [`reduce_lanes`] — the canonical fold every MAC path
/// replays. The four rails are a speed feature as much as a
/// determinism contract: they give the core four independent
/// floating-point add chains where the historical single accumulator
/// serialised every element on one. Zero activations skip both their
/// draws; counters are positional (`base + 2i` belongs to element `i`
/// whether or not it draws), so the skip is bit-identical to drawing
/// and discarding (a zero's contribution is an exact `±0.0` into a
/// non-negative accumulator, which can never change its bits).
///
/// The per-element draws stay deliberately scalar here: paper-shaped
/// windows (9 taps on a 10-ring arm) are too short for within-window
/// mixing batches to pay — the batched multiply chain's latency lands
/// on the critical path, where the scalar interleaving hides it. The
/// vector win on convolution comes from [`mac_indexed_x4_core`]
/// evaluating adjacent windows in lockstep instead.
#[allow(clippy::too_many_arguments)]
fn mac_indexed_core(
    weights: &[MappedWeight],
    ring_gain: &[f64],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    activations: &[f64],
    stream: &NoiseStream,
    base: u64,
) -> (f64, f64) {
    let m = activations.len();
    // Historical zip semantics: evaluate only elements that have a
    // loaded weight, but keep full-scale and the detector counter on
    // the activation count (see the short-window contract test).
    let n = m.min(weights.len());
    let cfg = stream.config();
    let sv = cfg.vcsel_rin;
    let sm = cfg.mr_drift;
    let mut pos = [0.0f64; LANES];
    let mut neg = [0.0f64; LANES];
    for i in 0..n {
        let a = activations[i];
        if a == 0.0 {
            continue;
        }
        let w = &weights[i];
        let c = base + 2 * i as u64;
        let launched = (channel_power_w * a * (1.0 + sv * stream.gaussian_at(c))).max(0.0);
        let t = (w.magnitude * (1.0 + sm * stream.gaussian_at(c + 1))).clamp(0.0, 1.0);
        let arrived = launched * t * ring_gain[i];
        if w.negative {
            neg[i % LANES] += arrived;
        } else {
            pos[i % LANES] += arrived;
        }
    }
    let p_pos = reduce_lanes(pos);
    let p_neg = reduce_lanes(neg);
    let diff = detector.difference_current(Watt::new(p_pos), Watt::new(p_neg));
    let full_scale = per_channel_full * m.max(1) as f64;
    let noisy = stream.detector_at(base + 2 * m as u64, diff.get(), full_scale);
    (noisy, p_pos + p_neg)
}

/// Arguments shared by every tier specialisation of the across-window
/// MAC. `activations` is element-major — `activations[i * LANES + l]`
/// is element `i` of window `l` — and `m` is the per-window length.
struct MacX4Args<'a> {
    weights: &'a [MappedWeight],
    ring_gain: &'a [f64],
    detector: &'a BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    dwell_s: f64,
    activations: &'a [f64],
    m: usize,
    quad: &'a StreamQuad,
    base: u64,
}

/// The across-window fused MAC: one weight window against [`LANES`]
/// activation windows in lockstep, bit-identical per window to
/// [`mac_indexed_core`] on that window's own stream.
///
/// This is where the vector units finally pay on paper-shaped (short)
/// windows. Adjacent convolution output positions consume the *same*
/// counters and weights and differ only in stream key, so channel
/// `i`'s (VCSEL, drift) draw pair batches across the four windows with
/// per-lane keys — one scalar counter spread feeding a vectorised
/// finaliser (see [`StreamQuad::gaussian_pair_at`]) — and the MAC
/// arithmetic itself runs element-by-element over four independent
/// window values.
///
/// Bit-identity per window holds by construction: element `i` of
/// window `l` performs the identical IEEE operations on the identical
/// draws as the per-window path, folding into rail `i mod LANES` of
/// window `l`'s own accumulators (`pos[rail][l]`), and windows never
/// mix. The only difference from four separate calls is that zero
/// activations draw-and-discard instead of skipping — which the
/// per-window path's own contract already proves bit-equivalent (an
/// exact `±0.0` into a non-negative accumulator), and which is forced
/// here anyway because the *other* windows still need the batch.
///
/// Generic over the pair-draw so [`mac_indexed_x4_core`] can compile
/// one `#[target_feature]`-specialised copy per mixing tier, letting
/// the vector kernel inline into the loop instead of paying an
/// out-of-line call per channel.
#[inline(always)]
fn mac_indexed_x4_body<D: Fn(&StreamQuad, u64) -> ([f64; LANES], [f64; LANES])>(
    a: &MacX4Args<'_>,
    draw_pairs: D,
) -> ([f64; LANES], [f64; LANES]) {
    let m = a.m;
    let n = m.min(a.weights.len());
    let cfg = a.quad.config();
    let sv = cfg.vcsel_rin;
    let sm = cfg.mr_drift;
    let mut pos = [[0.0f64; LANES]; LANES];
    let mut neg = [[0.0f64; LANES]; LANES];
    for i in 0..n {
        let w = &a.weights[i];
        let gain = a.ring_gain[i];
        let (g_vcsel, g_drift) = draw_pairs(a.quad, a.base + 2 * i as u64);
        let acts = &a.activations[i * LANES..(i + 1) * LANES];
        let rail = i % LANES;
        // The sign branch hoists above the window loop (the weight is
        // shared), so the inner body is branch-free and vectorises.
        if w.negative {
            for l in 0..LANES {
                let launched = (a.channel_power_w * acts[l] * (1.0 + sv * g_vcsel[l])).max(0.0);
                let t = (w.magnitude * (1.0 + sm * g_drift[l])).clamp(0.0, 1.0);
                neg[rail][l] += launched * t * gain;
            }
        } else {
            for l in 0..LANES {
                let launched = (a.channel_power_w * acts[l] * (1.0 + sv * g_vcsel[l])).max(0.0);
                let t = (w.magnitude * (1.0 + sm * g_drift[l])).clamp(0.0, 1.0);
                pos[rail][l] += launched * t * gain;
            }
        }
    }
    let full_scale = a.per_channel_full * m.max(1) as f64;
    let mut diffs = [0.0f64; LANES];
    let mut p_sum = [0.0f64; LANES];
    for l in 0..LANES {
        let p_pos = reduce_lanes([pos[0][l], pos[1][l], pos[2][l], pos[3][l]]);
        let p_neg = reduce_lanes([neg[0][l], neg[1][l], neg[2][l], neg[3][l]]);
        diffs[l] = a
            .detector
            .difference_current(Watt::new(p_pos), Watt::new(p_neg))
            .get();
        p_sum[l] = p_pos + p_neg;
    }
    let noisy = a.quad.detector_at(a.base + 2 * m as u64, diffs, full_scale);
    let mut values = [0.0f64; LANES];
    let mut energies = [0.0f64; LANES];
    for l in 0..LANES {
        values[l] = noisy[l] / a.per_channel_full;
        energies[l] = p_sum[l] * a.dwell_s;
    }
    (values, energies)
}

/// Portable specialisation of the across-window MAC: scalar mixing,
/// compiled without any vector feature. Also the only body on
/// non-x86_64 targets or with the `simd` feature disabled.
fn mac_indexed_x4_scalar(a: &MacX4Args<'_>) -> ([f64; LANES], [f64; LANES]) {
    mac_indexed_x4_body(a, |q, c| q.gaussian_pair_at_scalar(c))
}

/// AVX2 specialisation: the whole across-window loop is compiled with
/// AVX2 enabled so the vector mixing kernel inlines into it. Safe
/// `#[target_feature]` fn: the dispatcher wraps the call in `unsafe`
/// after runtime detection; the draw closure inherits this fn's AVX2
/// context, so the pair-draw call needs no `unsafe` of its own.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn mac_indexed_x4_avx2(a: &MacX4Args<'_>) -> ([f64; LANES], [f64; LANES]) {
    mac_indexed_x4_body(a, |q, c| q.gaussian_pair_at_avx2(c))
}

/// AVX-512 specialisation (see [`mac_indexed_x4_avx2`]).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512dq,avx512vl")]
fn mac_indexed_x4_avx512(a: &MacX4Args<'_>) -> ([f64; LANES], [f64; LANES]) {
    mac_indexed_x4_body(a, |q, c| q.gaussian_pair_at_avx512(c))
}

/// Tier dispatch for the across-window MAC: one cached-tier check per
/// window quad, then a fully-inlined specialised loop. Every tier
/// returns identical bits (integer mixing is exact; the floating-point
/// pipeline is the same code in each specialisation).
fn mac_indexed_x4_core(a: &MacX4Args<'_>) -> ([f64; LANES], [f64; LANES]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use oisa_device::simd::Tier;
        match oisa_device::simd::tier() {
            // SAFETY: the tier is only reported after the matching
            // target features were runtime-detected on this CPU.
            Tier::Avx512 => return unsafe { mac_indexed_x4_avx512(a) },
            Tier::Avx2 => return unsafe { mac_indexed_x4_avx2(a) },
            Tier::Scalar => {}
        }
    }
    mac_indexed_x4_scalar(a)
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
        // (explicit counters, zero-skip), the general path behind a
        // sequential cursor, and the pre-optimisation reference port.
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
    fn short_window_detector_counter_follows_activation_count() {
        // The contract: the detector draw sits at `base + 2·m` where
        // `m = activations.len()`, even when the activation window is
        // shorter than the loaded weights. All three MAC paths agree on
        // it, and the counter depends on the window length, never on
        // the loaded weight count.
        let w10 = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5, 0.3];
        let arm10 = loaded_arm(&w10, 4);
        let arm9 = loaded_arm(&w10[..9], 4);
        let source = NoiseSource::seeded(13, NoiseConfig::paper_default());
        let stream = source.stream(0, 1, 9);
        for m in [0usize, 1, 2, 3, 5, 8, 9] {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (fast, fast_energy) = arm10.mac_indexed(&a, &stream, 0);
            let general = arm10.mac(&a, &mut stream.cursor()).unwrap();
            let reference = arm10.mac_reference(&a, &mut stream.cursor()).unwrap();
            assert_eq!(fast, general.value, "m={m}");
            assert_eq!(fast, reference.value, "m={m}");
            assert_eq!(fast_energy, general.optical_energy.get(), "m={m}");
            // The same short window on an arm holding fewer weights
            // replays the same draws: if the detector counter tracked
            // `weights.len()`, these would diverge. (m ≤ 8 keeps the
            // last evaluated ring's crosstalk neighbourhood identical
            // between the 9- and 10-weight arms.)
            if m <= 8 {
                assert_eq!(fast, arm9.mac_indexed(&a, &stream, 0).0, "m={m}");
            }
        }
    }

    #[test]
    fn snapshot_macs_bit_identical_to_arm() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0];
        let arm = loaded_arm(&w, 4);
        let snap = arm.snapshot();
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
        let snap = arm.snapshot();
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
        let snap = arm.snapshot();
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
        let source = NoiseSource::seeded(5, NoiseConfig::paper_default());
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
                    let table = RingTable::new(config, &mapper).unwrap();
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
        let table = RingTable::new(ArmConfig::paper_default(), &mapper).unwrap();
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
