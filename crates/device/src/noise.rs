//! Shared noise utilities for the optical and analog models.
//!
//! Simulation crates inject noise through two complementary interfaces,
//! both deterministic under a seed so the accuracy experiments of
//! Table II stay reproducible run-to-run:
//!
//! * [`NoiseSource`] — the original *stateful* stream. Draws depend on
//!   call order, so it suits inherently serial paths (fault injection,
//!   behavioural quantisation sweeps) and keeps backwards compatibility.
//! * [`NoiseStream`] — a *counter-based* source keyed by
//!   `(seed, epoch, slot, position)`. Every draw is addressed by an
//!   explicit counter instead of consuming shared state, so evaluations
//!   can run in any order — including across threads — and still produce
//!   bit-identical results. This is what lets the accelerator parallelise
//!   `convolve_frame` without breaking `deterministic_under_seed`.
//!
//! Both implement [`NoiseModel`], the trait the optical fabric samples
//! through. The stream path draws its Gaussians with a 128-layer
//! ziggurat (one 64-bit mix and one compare on the fast path), which is
//! several times cheaper than the Box–Muller evaluation the stateful
//! path inherits from [`crate::sense_amp`].
//!
//! An arm-level MAC draws three Gaussians: one per detector rail and
//! one for the detector. The per-ring σs of [`NoiseConfig`] enter the
//! two rail draws through closed-form rail moments (see
//! `oisa_optics::arm`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

use crate::sense_amp::gaussian;
use crate::{DeviceError, Result};

/// The counter-spreading multiplier of [`NoiseStream::gaussian_at`].
const COUNTER_MUL: u64 = 0xA24B_AED4_963E_E407;

/// SplitMix64 finaliser over one state word: the mix behind every
/// stream key and every counter-addressed draw.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relative noise intensities applied along the optical MAC path.
///
/// `vcsel_rin` and `mr_drift` are per-ring parameters: each ring's
/// channel is modelled as `a·(1 + σv·g)·clamp(m·(1 + σm·h), 0, 1)` with
/// independent standard normals `g`, `h`. The MAC applies them through
/// the exact mean and variance that model gives each detector rail,
/// with one draw per rail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Relative intensity noise of each channel's VCSEL output (σ as a
    /// fraction of the signal).
    pub vcsel_rin: f64,
    /// Relative σ of each ring's transmission (thermal drift of the
    /// resonance between calibrations), clamped to the physical
    /// `[0, 1]`.
    pub mr_drift: f64,
    /// Additive σ at the BPD output as a fraction of the arm full scale
    /// (shot + thermal, lumped).
    pub detector: f64,
}

impl NoiseConfig {
    /// Calibrated so the optical first layer degrades CIFAR-like accuracy
    /// by a few points, matching Table II's gap to the float baseline.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            vcsel_rin: 0.01,
            mr_drift: 0.01,
            detector: 0.005,
        }
    }

    /// Noise-free configuration for ablations and functional tests.
    #[must_use]
    pub fn noiseless() -> Self {
        Self {
            vcsel_rin: 0.0,
            mr_drift: 0.0,
            detector: 0.0,
        }
    }
}

/// The sampling interface the optical fabric perturbs signals through.
///
/// Implemented by the stateful [`NoiseSource`], by [`StreamCursor`]
/// (sequential draws over a counter-based stream) and by test doubles.
pub trait NoiseModel {
    /// The intensities the fabric derives its rail moments from.
    fn config(&self) -> &NoiseConfig;

    /// Next raw standard-normal draw.
    fn standard_normal(&mut self) -> f64;

    /// Adds detector noise: `value + σ·full_scale·N(0,1)`.
    fn detector(&mut self, value: f64, full_scale: f64) -> f64;
}

/// A seeded Gaussian noise source.
///
/// # Examples
///
/// ```
/// use oisa_device::noise::{NoiseConfig, NoiseSource};
///
/// let mut a = NoiseSource::seeded(1, NoiseConfig::paper_default());
/// let mut b = NoiseSource::seeded(1, NoiseConfig::paper_default());
/// assert_eq!(a.perturb_signal(1.0, 0.01), b.perturb_signal(1.0, 0.01));
/// ```
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: StdRng,
    config: NoiseConfig,
    seed: u64,
    epoch: u64,
}

impl NoiseSource {
    /// Creates a source with a fixed seed.
    #[must_use]
    pub fn seeded(seed: u64, config: NoiseConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            config,
            seed,
            epoch: 0,
        }
    }

    /// The configured intensities.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// Multiplies `signal` by `(1 + σ·N(0,1))`.
    pub fn perturb_signal(&mut self, signal: f64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return signal;
        }
        signal * (1.0 + sigma * gaussian(&mut self.rng))
    }

    /// Adds detector noise: `value + σ·full_scale·N(0,1)`.
    pub fn detector(&mut self, value: f64, full_scale: f64) -> f64 {
        if self.config.detector == 0.0 {
            return value;
        }
        value + self.config.detector * full_scale * gaussian(&mut self.rng)
    }

    /// Raw standard-normal sample (for callers composing their own
    /// models).
    pub fn standard_normal(&mut self) -> f64 {
        gaussian(&mut self.rng)
    }

    /// Raw uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Advances to (and returns) the next noise epoch.
    ///
    /// Counter-based streams mix the epoch into their keys, so repeated
    /// evaluations of the same workload (e.g. per-channel passes of a
    /// multi-channel convolution) see fresh noise while staying
    /// deterministic under the seed.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] when the epoch counter would wrap —
    /// see [`NoiseSource::reserve_epochs`].
    pub fn begin_epoch(&mut self) -> Result<u64> {
        self.reserve_epochs(1)
    }

    /// Reserves `count` consecutive epochs in one step, returning the
    /// first — equivalent to `count` calls of
    /// [`NoiseSource::begin_epoch`].
    ///
    /// The batched convolution engine keys frame `f` of a batch to
    /// epoch `first + f`, so a batch draws exactly the noise a
    /// per-frame sequential loop would, while the reservation happens
    /// atomically once the whole batch has validated.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] when the reservation would wrap the
    /// `u64` epoch counter. A wrapped counter would silently re-key new
    /// frames onto noise streams already used by earlier ones — fatal
    /// for a long-lived serving process that relies on per-frame stream
    /// independence — so exhaustion is a checked error, never a wrap.
    /// The counter stays unchanged on error.
    pub fn reserve_epochs(&mut self, count: u64) -> Result<u64> {
        let first = self.epoch;
        self.epoch = self.epoch.checked_add(count).ok_or_else(|| {
            DeviceError::OutOfRange(format!(
                "noise epoch counter would wrap: {first} + {count} epochs exceeds u64::MAX; \
                 re-seed the source to start a fresh stream family"
            ))
        })?;
        Ok(first)
    }

    /// The epoch the next [`NoiseSource::begin_epoch`] /
    /// [`NoiseSource::reserve_epochs`] call will hand out.
    ///
    /// Together with [`NoiseSource::advance_to_epoch`] this is the
    /// hook distributed executors use to keep several sources — one
    /// per worker process — keyed into the *same* stream family as a
    /// single sequential source.
    #[must_use]
    pub fn next_epoch(&self) -> u64 {
        self.epoch
    }

    /// Fast-forwards the epoch counter to `target`, so the next
    /// reservation starts there.
    ///
    /// A shard worker that owns frames `[a, b)` of a job advances its
    /// freshly-seeded source to `base + a` before reserving; the frames
    /// then draw from exactly the streams a single host running the
    /// whole job would have used.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] when `target` lies *behind* the
    /// counter — rewinding would re-key new frames onto streams already
    /// consumed, the same silent collision the overflow check in
    /// [`NoiseSource::reserve_epochs`] exists to prevent. The counter
    /// stays unchanged on error.
    pub fn advance_to_epoch(&mut self, target: u64) -> Result<()> {
        if target < self.epoch {
            return Err(DeviceError::OutOfRange(format!(
                "cannot rewind noise epoch counter from {} to {target}: earlier epochs may \
                 already key consumed streams; re-seed the source instead",
                self.epoch
            )));
        }
        self.epoch = target;
        Ok(())
    }

    /// A counter-based stream for `(slot, position)` under `epoch`.
    ///
    /// Streams derived from the same key always replay the same draws,
    /// independent of evaluation order — see [`NoiseStream`].
    #[must_use]
    pub fn stream(&self, epoch: u64, slot: u64, position: u64) -> NoiseStream {
        self.slot_stream(epoch, slot).at(position)
    }

    /// The per-slot half of [`NoiseSource::stream`], hoistable out of
    /// position loops: the `(seed, epoch, slot)` mixing happens once and
    /// each output position costs a single extra mix.
    #[must_use]
    pub fn slot_stream(&self, epoch: u64, slot: u64) -> SlotStream {
        SlotStream {
            partial_key: mix64(self.seed ^ mix64(epoch ^ mix64(slot ^ 0x6A09_E667_F3BC_C909))),
            config: self.config,
            tables: zig_tables(),
        }
    }
}

/// The `(seed, epoch, slot)`-mixed prefix of a stream key. Call
/// [`SlotStream::at`] per output position to get the full
/// [`NoiseStream`].
#[derive(Debug, Clone, Copy)]
pub struct SlotStream {
    partial_key: u64,
    config: NoiseConfig,
    tables: &'static ZigTables,
}

impl SlotStream {
    /// The stream for one output position under this slot.
    #[inline]
    #[must_use]
    pub fn at(&self, position: u64) -> NoiseStream {
        NoiseStream {
            key: mix64(self.partial_key ^ position.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            config: self.config,
            tables: self.tables,
        }
    }
}

impl NoiseModel for NoiseSource {
    fn config(&self) -> &NoiseConfig {
        &self.config
    }

    fn standard_normal(&mut self) -> f64 {
        Self::standard_normal(self)
    }

    fn detector(&mut self, value: f64, full_scale: f64) -> f64 {
        Self::detector(self, value, full_scale)
    }
}

/// Minimal per-counter substream: a SplitMix64 walk seeded from the
/// mixed `(key, counter)` pair. Only the rare ziggurat fallback draws
/// more than one value from it.
struct SubRng(u64);

impl SubRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never zero, so logarithms stay finite.
    #[inline]
    fn uniform_open(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Number of ziggurat layers.
const ZIG_LAYERS: usize = 128;
/// Ziggurat tail cut-off (Doornik's constants for 128 layers).
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of each ziggurat slice.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Precomputed ziggurat geometry: layer edges `x[i]` and the rectangle
/// acceptance ratios `x[i+1]/x[i]`.
#[derive(Debug)]
pub struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    ratio: [f64; ZIG_LAYERS],
}

/// The tables, built on first use. Streams cache the reference so the
/// hot path never touches the `OnceLock` per draw.
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; ZIG_LAYERS + 1];
        let f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut ratio = [0.0f64; ZIG_LAYERS];
        for i in 0..ZIG_LAYERS {
            ratio[i] = x[i + 1] / x[i];
        }
        ZigTables { x, ratio }
    })
}

/// Cold continuation of the ziggurat: wedge and tail corrections, fed by
/// a substream derived from the rejected draw (≈ 1.2 % of samples).
#[cold]
fn ziggurat_slow(tables: &ZigTables, mut first_u: f64, mut first_i: usize, state: u64) -> f64 {
    let x = &tables.x;
    let ratio = &tables.ratio;
    let mut sub = SubRng(state);
    loop {
        if first_i == 0 {
            // Marsaglia tail beyond ZIG_R.
            loop {
                let tx = -sub.uniform_open().ln() / ZIG_R;
                let ty = -sub.uniform_open().ln();
                if 2.0 * ty > tx * tx {
                    return if first_u < 0.0 {
                        -(ZIG_R + tx)
                    } else {
                        ZIG_R + tx
                    };
                }
            }
        }
        let xi = first_u * x[first_i];
        let f0 = (-0.5 * (x[first_i] * x[first_i] - xi * xi)).exp();
        let f1 = (-0.5 * (x[first_i + 1] * x[first_i + 1] - xi * xi)).exp();
        if f1 + sub.uniform_open() * (f0 - f1) < 1.0 {
            return xi;
        }
        // Fresh rectangle attempt from the substream.
        let bits = sub.next_u64();
        let i = (bits & 0x7F) as usize;
        let u = 2.0 * ((bits >> 12) as f64 * (1.0 / (1u64 << 52) as f64)) - 1.0;
        if u.abs() < ratio[i] {
            return u * x[i];
        }
        first_u = u;
        first_i = i;
    }
}

/// A counter-based Gaussian noise stream.
///
/// Each draw is addressed by an explicit `counter`; the result depends
/// only on `(key, counter)`, never on how many draws happened before.
/// Two streams with the same key replay identical noise in any
/// evaluation order, which is what makes the parallel convolution
/// pipeline bit-identical to its sequential reference.
///
/// # Examples
///
/// ```
/// use oisa_device::noise::{NoiseConfig, NoiseSource};
///
/// let src = NoiseSource::seeded(7, NoiseConfig::paper_default());
/// let s = src.stream(0, 3, 41);
/// // Order does not matter: counter 5 always yields the same draw.
/// let a = s.gaussian_at(5);
/// let _ = s.gaussian_at(0);
/// assert_eq!(a, s.gaussian_at(5));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NoiseStream {
    key: u64,
    config: NoiseConfig,
    tables: &'static ZigTables,
}

impl NoiseStream {
    /// The configured intensities.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// Standard-normal draw at `counter`.
    ///
    /// Fast path: one SplitMix64 finalisation feeds both the ziggurat
    /// layer index (low 7 bits) and the 52-bit uniform; the rare
    /// rejected draw continues in `ziggurat_slow`.
    #[inline]
    #[must_use]
    pub fn gaussian_at(&self, counter: u64) -> f64 {
        let bits = mix64(self.key ^ counter.wrapping_mul(COUNTER_MUL));
        let i = (bits & 0x7F) as usize;
        let u = 2.0 * ((bits >> 12) as f64 * (1.0 / (1u64 << 52) as f64)) - 1.0;
        if u.abs() < self.tables.ratio[i] {
            u * self.tables.x[i]
        } else {
            ziggurat_slow(self.tables, u, i, bits)
        }
    }

    /// Detector noise on `value`, addressed by `counter`.
    #[inline]
    #[must_use]
    pub fn detector_at(&self, counter: u64, value: f64, full_scale: f64) -> f64 {
        if self.config.detector == 0.0 {
            return value;
        }
        value + self.config.detector * full_scale * self.gaussian_at(counter)
    }

    /// A sequential [`NoiseModel`] cursor over this stream, starting at
    /// counter 0.
    #[must_use]
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            stream: *self,
            counter: 0,
        }
    }
}

/// Sequential adapter: draws counters 0, 1, 2, … from a
/// [`NoiseStream`], one per [`NoiseModel`] draw call.
///
/// A MAC evaluated through a cursor consumes exactly the counters 0
/// (positive rail), 1 (negative rail) and 2 (detector) — the same
/// addressing the fused fast path uses explicitly, so the two produce
/// bit-identical physics.
#[derive(Debug, Clone)]
pub struct StreamCursor {
    stream: NoiseStream,
    counter: u64,
}

impl StreamCursor {
    #[inline]
    fn next_counter(&mut self) -> u64 {
        let c = self.counter;
        self.counter += 1;
        c
    }
}

impl NoiseModel for StreamCursor {
    fn config(&self) -> &NoiseConfig {
        &self.stream.config
    }

    fn standard_normal(&mut self) -> f64 {
        let c = self.next_counter();
        self.stream.gaussian_at(c)
    }

    fn detector(&mut self, value: f64, full_scale: f64) -> f64 {
        let c = self.next_counter();
        self.stream.detector_at(c, value, full_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = NoiseConfig::paper_default();
        let mut a = NoiseSource::seeded(99, cfg);
        let mut b = NoiseSource::seeded(99, cfg);
        for _ in 0..50 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = NoiseConfig::paper_default();
        let mut a = NoiseSource::seeded(1, cfg);
        let mut b = NoiseSource::seeded(2, cfg);
        let same = (0..20)
            .filter(|_| a.standard_normal() == b.standard_normal())
            .count();
        assert!(same < 3);
    }

    #[test]
    fn noiseless_config_is_identity() {
        let mut src = NoiseSource::seeded(5, NoiseConfig::noiseless());
        assert_eq!(src.detector(1.5, 10.0), 1.5);
        let s = src.stream(0, 0, 0);
        assert_eq!(s.detector_at(3, 1.5, 10.0), 1.5);
    }

    #[test]
    fn perturbation_statistics() {
        let mut src = NoiseSource::seeded(17, NoiseConfig::paper_default());
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| src.perturb_signal(2.0, 0.05)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.01, "mean {mean}");
        let sd = (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((sd - 0.1).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn stream_draws_are_order_independent() {
        let src = NoiseSource::seeded(11, NoiseConfig::paper_default());
        let s = src.stream(0, 4, 1000);
        let forward: Vec<f64> = (0..16).map(|c| s.gaussian_at(c)).collect();
        let backward: Vec<f64> = (0..16).rev().map(|c| s.gaussian_at(c)).collect();
        let reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn stream_keys_separate_slots_positions_epochs() {
        let src = NoiseSource::seeded(11, NoiseConfig::paper_default());
        let base = src.stream(0, 1, 1).gaussian_at(0);
        assert_ne!(base, src.stream(0, 1, 2).gaussian_at(0));
        assert_ne!(base, src.stream(0, 2, 1).gaussian_at(0));
        assert_ne!(base, src.stream(1, 1, 1).gaussian_at(0));
        // And the same key replays exactly.
        assert_eq!(base, src.stream(0, 1, 1).gaussian_at(0));
    }

    /// Finds the first counter whose fast-path rectangle draw is
    /// rejected in the tail layer (`i == 0`), forcing
    /// [`ziggurat_slow`] into its Marsaglia tail.
    fn tail_rejected_counter(s: &NoiseStream) -> u64 {
        let tables = zig_tables();
        (0..10_000_000)
            .find(|c: &u64| {
                let bits = mix64(s.key ^ c.wrapping_mul(COUNTER_MUL));
                let u = 2.0 * ((bits >> 12) as f64 * (1.0 / (1u64 << 52) as f64)) - 1.0;
                bits & 0x7F == 0 && u.abs() >= tables.ratio[0]
            })
            .expect("no rejected tail-layer draw found")
    }

    #[test]
    fn tail_layer_rejection_draws_through_ziggurat_slow() {
        // A counter whose rectangle draw is rejected in the tail layer
        // (layer 0) can only finish in `ziggurat_slow`'s Marsaglia
        // tail, beyond the cut-off.
        let src = NoiseSource::seeded(8, NoiseConfig::paper_default());
        let s = src.stream(0, 0, 0);
        let t = tail_rejected_counter(&s);
        let draw = s.gaussian_at(t);
        assert!(draw.abs() > 3.0, "tail draw should be extreme: {draw}");
    }

    #[test]
    fn cursor_matches_explicit_counters() {
        let src = NoiseSource::seeded(3, NoiseConfig::paper_default());
        let s = src.stream(0, 0, 7);
        let mut cursor = s.cursor();
        assert_eq!(cursor.config(), s.config());
        let via_cursor = (
            cursor.standard_normal(),
            cursor.standard_normal(),
            cursor.detector(2.0e-6, 1.0e-3),
        );
        let via_counters = (
            s.gaussian_at(0),
            s.gaussian_at(1),
            s.detector_at(2, 2.0e-6, 1.0e-3),
        );
        assert_eq!(via_cursor, via_counters);
    }

    #[test]
    fn source_draws_through_the_trait_match_its_own_methods() {
        let cfg = NoiseConfig::paper_default();
        let mut direct = NoiseSource::seeded(12, cfg);
        let mut via_trait = NoiseSource::seeded(12, cfg);
        assert_eq!(NoiseModel::config(&via_trait), &cfg);
        for _ in 0..8 {
            assert_eq!(
                direct.standard_normal(),
                NoiseModel::standard_normal(&mut via_trait)
            );
        }
        assert_eq!(
            direct.detector(1.0, 2.0),
            NoiseModel::detector(&mut via_trait, 1.0, 2.0)
        );
    }

    #[test]
    fn ziggurat_moments_match_standard_normal() {
        let src = NoiseSource::seeded(23, NoiseConfig::paper_default());
        let s = src.stream(0, 0, 0);
        let n = 40_000u64;
        let samples: Vec<f64> = (0..n).map(|c| s.gaussian_at(c)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        // Symmetric-ish and with realistic tails.
        let above = samples.iter().filter(|&&x| x > 0.0).count() as f64 / n as f64;
        assert!((above - 0.5).abs() < 0.02, "P(x>0) {above}");
        let tail = samples.iter().filter(|&&x| x.abs() > 2.0).count() as f64 / n as f64;
        assert!((tail - 0.0455).abs() < 0.01, "P(|x|>2) {tail}");
    }

    #[test]
    fn epochs_advance_deterministically() {
        let mut a = NoiseSource::seeded(1, NoiseConfig::paper_default());
        let mut b = NoiseSource::seeded(1, NoiseConfig::paper_default());
        assert_eq!(a.begin_epoch().unwrap(), 0);
        assert_eq!(a.begin_epoch().unwrap(), 1);
        assert_eq!(b.begin_epoch().unwrap(), 0);
        assert_eq!(b.begin_epoch().unwrap(), 1);
    }

    #[test]
    fn reserved_epochs_match_sequential_begins() {
        let cfg = NoiseConfig::paper_default();
        let mut batch = NoiseSource::seeded(9, cfg);
        let mut serial = NoiseSource::seeded(9, cfg);
        batch.begin_epoch().unwrap();
        serial.begin_epoch().unwrap();
        let first = batch.reserve_epochs(3).unwrap();
        let singles: Vec<u64> = (0..3).map(|_| serial.begin_epoch().unwrap()).collect();
        assert_eq!(vec![first, first + 1, first + 2], singles);
        // Both sources continue from the same epoch afterwards.
        assert_eq!(batch.begin_epoch().unwrap(), serial.begin_epoch().unwrap());
        // And the reserved epochs key the same streams a sequential
        // loop would have seen.
        assert_eq!(
            batch.stream(first + 1, 0, 0).gaussian_at(0),
            serial.stream(singles[1], 0, 0).gaussian_at(0)
        );
    }

    #[test]
    fn advance_aligns_with_a_sequential_source() {
        let cfg = NoiseConfig::paper_default();
        let mut sequential = NoiseSource::seeded(6, cfg);
        sequential.reserve_epochs(5).unwrap();
        // A worker handling frames [3, 5) of the same 5-frame job.
        let mut worker = NoiseSource::seeded(6, cfg);
        assert_eq!(worker.next_epoch(), 0);
        worker.advance_to_epoch(3).unwrap();
        assert_eq!(worker.next_epoch(), 3);
        let first = worker.reserve_epochs(2).unwrap();
        assert_eq!(first, 3);
        assert_eq!(
            worker.stream(4, 1, 2).gaussian_at(9),
            sequential.stream(4, 1, 2).gaussian_at(9)
        );
        // Advancing to the current position is a no-op, not an error.
        worker.advance_to_epoch(5).unwrap();
        assert_eq!(worker.next_epoch(), 5);
    }

    #[test]
    fn advance_refuses_to_rewind() {
        let mut src = NoiseSource::seeded(6, NoiseConfig::paper_default());
        src.reserve_epochs(10).unwrap();
        let err = src.advance_to_epoch(4).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfRange(_)), "got {err:?}");
        assert!(err.to_string().contains("rewind"), "message: {err}");
        // The failed call left the counter untouched.
        assert_eq!(src.next_epoch(), 10);
    }

    #[test]
    fn epoch_exhaustion_is_a_checked_error_not_a_wrap() {
        let mut src = NoiseSource::seeded(4, NoiseConfig::paper_default());
        // Walk the counter to the exact boundary: the reservation that
        // fills the space succeeds...
        let first = src.reserve_epochs(u64::MAX - 1).unwrap();
        assert_eq!(first, 0);
        assert_eq!(src.begin_epoch().unwrap(), u64::MAX - 1);
        // ...and the first reservation past it fails instead of
        // wrapping back onto epoch 0's streams.
        let err = src.begin_epoch().unwrap_err();
        assert!(matches!(err, DeviceError::OutOfRange(_)), "got {err:?}");
        assert!(err.to_string().contains("epoch"), "message: {err}");
        // The failed call left the counter untouched: a zero-count
        // reservation (a no-op) still reports the same next epoch.
        assert_eq!(src.reserve_epochs(0).unwrap(), u64::MAX);
        // Multi-epoch reservations are checked the same way.
        let mut batch = NoiseSource::seeded(4, NoiseConfig::paper_default());
        batch.reserve_epochs(u64::MAX - 2).unwrap();
        assert!(batch.reserve_epochs(3).is_err());
        assert_eq!(batch.reserve_epochs(2).unwrap(), u64::MAX - 2);
    }
}
