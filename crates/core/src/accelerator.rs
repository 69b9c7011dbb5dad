//! The end-to-end accelerator: imager → VAM → OPC → VOM.
//!
//! [`OisaAccelerator::convolve_frame`] runs the *physical* path the paper
//! describes: expose the frame, threshold each pixel into a ternary VCSEL
//! drive, multiply against ring-held weights wavelength-by-wavelength,
//! subtract on the balanced photodetectors, and (for 5×5/7×7 kernels)
//! re-aggregate per-arm partial sums in the VOM. Everything is energy-
//! and latency-accounted through the controller and mapping plan.
//!
//! # Hot-path architecture
//!
//! The convolution inner loop is engineered for frame-rate simulation:
//!
//! * **Counter-based noise.** Every `(kernel, output position)` pair
//!   gets its own [`NoiseStream`](oisa_device::noise::NoiseStream), so
//!   evaluation order — including across threads — never changes the
//!   physics. The parallel engine and
//!   [`OisaAccelerator::convolve_frame_sequential`] are bit-identical.
//! * **Zero per-pixel allocation, one write per value.** Windows are
//!   gathered into a stack scratch array, each value is written once,
//!   straight into its kernel's feature map in the report, and the
//!   fused [`RingTable::fused_mac`] skips
//!   [`MacResult`](oisa_optics::arm::MacResult) construction entirely.
//! * **Taps formed once per pass.** Each call builds one
//!   [`RingTable`], which holds every code's rail-moment coefficients
//!   under the configured [`NoiseConfig`] and every neighbour pair's
//!   crosstalk × waveguide gain. A pass stages its weights through it
//!   and forms each arm's taps once ([`RingTable::taps`]), so no window
//!   re-derives them or reads the fabric.
//! * **Three draws per MAC.** VCSEL RIN and ring drift reach the
//!   detector through one Gaussian per rail, drawn from the rail's
//!   closed-form mean and variance, plus the detector draw (see
//!   `oisa_optics::arm`).
//! * **Ordered reduction.** Row tasks return energy partials that are
//!   reduced in row order, so the energy report is identical no matter
//!   how many worker threads ran.
//!
//! [`OisaAccelerator::convolve_frame_reference`] keeps a faithful port
//! of the pre-optimisation MAC path (per-window allocation, per-MAC
//! validation and crosstalk evaluation, order-dependent noise) as the
//! wall-clock baseline for `perf_json` and the microbenchmarks.
//!
//! # One parallel engine
//!
//! [`OisaAccelerator::convolve_frames`] is the one parallel conv
//! engine; [`OisaAccelerator::convolve_frame`] (and so the conv stage
//! of a layer program and each channel of
//! [`OisaAccelerator::convolve_channels`]) is its one-frame batch. It
//! stages every weight pass **once for the whole batch**, forms each
//! pass's arm taps ([`oisa_optics::arm::StagedTaps`]), and spreads
//! `(frame, pass, row-band)` work items over the work-stealing
//! scheduler in [`crate::scheduler`]. Each frame is keyed to its own
//! noise epoch, so the batch output — feature maps, energy report and
//! timeline per frame — is bit-identical to calling
//! [`OisaAccelerator::convolve_frame_sequential`], the strictly serial
//! oracle, once per frame in order. Because ring tuning cost depends on
//! the fabric's previous operating point, the engine records two
//! tuning/memory energies: the batch's first frame pays the entry-state
//! cost, every later frame pays the steady-state cost a per-frame loop
//! would see. Every path stages a pass through one routine, so all of
//! them quantise, tune and charge identically.

use oisa_device::awc::{AwcModel, AwcParams};
use oisa_device::noise::{NoiseConfig, NoiseSource, SlotStream};
use oisa_memory::bank::KernelBank;
use oisa_optics::arm::{RingTable, StagedTaps, COUNTER_STRIDE, RINGS_PER_ARM};
use oisa_optics::bank::RINGS_PER_BANK;
use oisa_optics::opc::{KernelSize, Opc, OpcConfig};
use oisa_optics::vom::{Vom, VomConfig};
use oisa_optics::weights::WeightMapper;
use oisa_sensor::frame::Frame;
use oisa_sensor::imager::{Imager, ImagerConfig};
use oisa_sensor::vam::{Vam, VamConfig};
use oisa_units::Joule;
use serde::{Deserialize, Serialize};

use crate::controller::{Controller, ControllerTiming, Timeline};
use crate::mapping::{assign_slots, ConvWorkload, MappingPlan};
use crate::{scheduler, CoreError, Result};

/// Accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OisaConfig {
    /// Imager (dimensions + pixel design + frame rate).
    pub imager: ImagerConfig,
    /// Optical core structure.
    pub opc: OpcConfig,
    /// Activation modulator.
    pub vam: VamConfig,
    /// Output modulator.
    pub vom: VomConfig,
    /// Controller timing.
    pub timing: ControllerTiming,
    /// Weight bit-width (1–4).
    pub weight_bits: u8,
    /// AWC fidelity (ideal vs. mismatch).
    pub awc_model: AwcModel,
    /// Optical noise intensities.
    pub noise: NoiseConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl OisaConfig {
    /// The paper configuration at `width × height` pixels.
    ///
    /// A thin wrapper over [`OisaConfig::builder`]'s defaults that
    /// never panics: degenerate dimensions still surface as a
    /// `Result` from [`OisaAccelerator::new`], exactly as before the
    /// builder existed. Call `builder().build()` instead when you want
    /// the up-front [`OisaError::Config`](crate::error::OisaError::Config) validation.
    #[must_use]
    pub fn paper_default(width: usize, height: usize) -> Self {
        Self::builder().imager_dims(width, height).config
    }

    /// A small, fast configuration for tests and doctests: 16×16 imager,
    /// 4-bank OPC, noiseless, ideal AWC.
    #[must_use]
    pub fn small_test() -> Self {
        Self::builder()
            .imager_dims(16, 16)
            .opc_shape(4, 2, 10)
            .noise(NoiseConfig::noiseless())
            .awc_model(AwcModel::Ideal)
            .config
    }

    /// Starts a validated builder from the paper defaults (16×16
    /// imager until [`OisaConfigBuilder::imager_dims`] says otherwise).
    ///
    /// Prefer this over mutating a default struct when the values come
    /// from outside the program: [`OisaConfigBuilder::build`] rejects
    /// bad dimensions with a typed [`OisaError::Config`](crate::error::OisaError::Config) naming the
    /// field, instead of letting them surface as a substrate error
    /// deep inside [`OisaAccelerator::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use oisa_core::OisaConfig;
    /// use oisa_device::noise::NoiseConfig;
    ///
    /// # fn main() -> Result<(), oisa_core::OisaError> {
    /// let config = OisaConfig::builder()
    ///     .imager_dims(16, 16)
    ///     .opc_shape(4, 2, 10)
    ///     .noise(NoiseConfig::paper_default())
    ///     .seed(7)
    ///     .build()?;
    /// assert_eq!((config.imager.width, config.imager.height), (16, 16));
    ///
    /// // `build` refuses degenerate values with a typed error.
    /// let err = OisaConfig::builder().imager_dims(0, 16).build().unwrap_err();
    /// assert!(err.to_string().contains("imager"));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn builder() -> OisaConfigBuilder {
        OisaConfigBuilder::default()
    }

    /// A stable-within-a-build fingerprint of every configuration
    /// field, mixed with FNV-1a over the `Debug` rendering.
    ///
    /// The sharded backend stamps this into every
    /// [`ProgramShard`](crate::wire::ProgramShard) and workers refuse shards
    /// whose fingerprint differs from their own deployment config —
    /// two processes disagreeing about the physics would otherwise
    /// merge incompatible shards. The hash is derived from the `Debug`
    /// format, so it discriminates configs **within one build of this
    /// crate**: two builds that render a config differently disagree on
    /// its fingerprint. The config itself does travel on the wire: a
    /// [`Configure`](crate::wire::WireMessage::Configure) push carries
    /// every field, and the worker answers with the fingerprint of the
    /// config it applied.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in format!("{self:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Re-runs the [`OisaConfigBuilder::build`] validation on an
    /// existing configuration — the check applied to configs that
    /// arrive from outside the process (a
    /// [`ConfigPush`](crate::wire::ConfigPush)), so a malformed push
    /// fails typed instead of deep inside accelerator construction.
    ///
    /// # Errors
    ///
    /// As [`OisaConfigBuilder::build`].
    pub fn validated(self) -> std::result::Result<Self, crate::OisaError> {
        OisaConfigBuilder { config: self }.build()
    }
}

/// Validating builder for [`OisaConfig`] — see [`OisaConfig::builder`].
///
/// Every setter overrides one field of the paper defaults; `build`
/// checks the cross-field invariants the substrate crates would
/// otherwise reject one constructor at a time.
///
/// # Examples
///
/// ```
/// use oisa_core::{OisaConfig, OisaError};
///
/// let cfg = OisaConfig::builder()
///     .imager_dims(32, 32)
///     .opc_shape(4, 2, 10)
///     .seed(7)
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.imager.width, 32);
///
/// let err = OisaConfig::builder().imager_dims(0, 32).build().unwrap_err();
/// assert!(matches!(err, OisaError::Config { field: "imager", .. }));
/// ```
#[derive(Debug, Clone)]
pub struct OisaConfigBuilder {
    config: OisaConfig,
}

impl Default for OisaConfigBuilder {
    /// Paper defaults on a 16×16 imager.
    fn default() -> Self {
        Self {
            config: OisaConfig {
                imager: ImagerConfig::paper_default(16, 16),
                opc: OpcConfig::paper_default(),
                vam: VamConfig::paper_default(),
                vom: VomConfig::paper_default(),
                timing: ControllerTiming::paper_default(),
                weight_bits: 4,
                awc_model: AwcModel::paper_mismatch(),
                noise: NoiseConfig::paper_default(),
                seed: 0,
            },
        }
    }
}

impl OisaConfigBuilder {
    /// Imager dimensions in pixels.
    #[must_use]
    pub fn imager_dims(mut self, width: usize, height: usize) -> Self {
        self.config.imager.width = width;
        self.config.imager.height = height;
        self
    }

    /// Target frame rate of the imager.
    #[must_use]
    pub fn frame_rate_hz(mut self, hz: f64) -> Self {
        self.config.imager.frame_rate_hz = hz;
        self
    }

    /// OPC structure: bank count, bank columns and shared AWC units.
    #[must_use]
    pub fn opc_shape(mut self, banks: usize, columns: usize, awc_units: usize) -> Self {
        self.config.opc.banks = banks;
        self.config.opc.columns = columns;
        self.config.opc.awc_units = awc_units;
        self
    }

    /// Weight bit-width (1–4).
    #[must_use]
    pub fn weight_bits(mut self, bits: u8) -> Self {
        self.config.weight_bits = bits;
        self
    }

    /// AWC fidelity model.
    #[must_use]
    pub fn awc_model(mut self, model: AwcModel) -> Self {
        self.config.awc_model = model;
        self
    }

    /// Optical noise intensities.
    #[must_use]
    pub fn noise(mut self, noise: NoiseConfig) -> Self {
        self.config.noise = noise;
        self
    }

    /// Simulation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`OisaError::Config`](crate::error::OisaError::Config) naming the offending field when any
    /// dimension is degenerate: a zero-sized imager, a non-positive
    /// frame rate, an OPC whose banks don't tile its columns (or with
    /// zero banks/columns/AWC units), or a weight bit-width outside
    /// 1–4.
    pub fn build(self) -> std::result::Result<OisaConfig, crate::OisaError> {
        let cfg = &self.config;
        let fail =
            |field: &'static str, reason: String| Err(crate::OisaError::Config { field, reason });
        if cfg.imager.width == 0 || cfg.imager.height == 0 {
            return fail(
                "imager",
                format!(
                    "dimensions must be positive, got {}x{}",
                    cfg.imager.width, cfg.imager.height
                ),
            );
        }
        if !(cfg.imager.frame_rate_hz.is_finite() && cfg.imager.frame_rate_hz > 0.0) {
            return fail(
                "frame_rate_hz",
                format!(
                    "must be a positive finite rate, got {}",
                    cfg.imager.frame_rate_hz
                ),
            );
        }
        if cfg.opc.banks == 0 || cfg.opc.columns == 0 || cfg.opc.awc_units == 0 {
            return fail(
                "opc",
                format!(
                    "banks ({}), columns ({}) and awc_units ({}) must all be positive",
                    cfg.opc.banks, cfg.opc.columns, cfg.opc.awc_units
                ),
            );
        }
        if !cfg.opc.banks.is_multiple_of(cfg.opc.columns) {
            return fail(
                "opc",
                format!(
                    "banks ({}) must tile evenly over columns ({})",
                    cfg.opc.banks, cfg.opc.columns
                ),
            );
        }
        if !(1..=4).contains(&cfg.weight_bits) {
            return fail(
                "weight_bits",
                format!("must be 1–4, got {}", cfg.weight_bits),
            );
        }
        if let Some(reason) = noise_sigma_error(&cfg.noise) {
            return fail("noise", reason);
        }
        Ok(self.config)
    }
}

/// Names the first noise σ that is negative or not finite: the check
/// [`OisaConfigBuilder::build`] and [`OisaAccelerator::new`] share, so
/// a struct-literal config cannot take a bad σ past the builder into
/// the fabric's rail moments.
fn noise_sigma_error(noise: &NoiseConfig) -> Option<String> {
    [
        ("vcsel_rin", noise.vcsel_rin),
        ("mr_drift", noise.mr_drift),
        ("detector", noise.detector),
    ]
    .into_iter()
    .find(|&(_, sigma)| !(sigma.is_finite() && sigma >= 0.0))
    .map(|(name, sigma)| format!("{name} must be a finite non-negative sigma, got {sigma}"))
}

impl Default for OisaConfig {
    fn default() -> Self {
        Self::small_test()
    }
}

/// Energy breakdown of one convolved frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Pixel exposure and readout.
    pub sensing: Joule,
    /// Sense-amplifier decisions plus VCSEL symbols.
    pub encoding: Joule,
    /// Ring tuning (weight mapping), all passes.
    pub tuning: Joule,
    /// Optical compute (light absorbed at the detectors) plus ring hold.
    pub compute: Joule,
    /// VOM aggregation and re-modulation.
    pub aggregation: Joule,
    /// Kernel-bank accesses.
    pub memory: Joule,
}

impl EnergyReport {
    /// Total energy.
    #[must_use]
    pub fn total(&self) -> Joule {
        self.sensing + self.encoding + self.tuning + self.compute + self.aggregation + self.memory
    }
}

/// Output of [`OisaAccelerator::convolve_frame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvolutionReport {
    /// One feature map per kernel, row-major `out_h × out_w`.
    pub output: Vec<Vec<f32>>,
    /// Output feature-map height.
    pub out_h: usize,
    /// Output feature-map width.
    pub out_w: usize,
    /// The placement used.
    pub plan: MappingPlan,
    /// Phase latencies.
    pub timeline: Timeline,
    /// Energy breakdown.
    pub energy: EnergyReport,
}

/// The assembled accelerator.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct OisaAccelerator {
    config: OisaConfig,
    imager: Imager,
    vam: Vam,
    opc: Opc,
    vom: Vom,
    bank: KernelBank,
    mapper: WeightMapper,
    noise: NoiseSource,
    controller: Controller,
}

impl OisaAccelerator {
    /// Builds the accelerator from a configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a noise σ that is negative
    /// or not finite; otherwise propagates substrate construction
    /// failures.
    pub fn new(config: OisaConfig) -> Result<Self> {
        if let Some(reason) = noise_sigma_error(&config.noise) {
            return Err(CoreError::InvalidParameter(format!("noise: {reason}")));
        }
        let awc_params = AwcParams {
            bits: config.weight_bits,
            model: config.awc_model,
            ..AwcParams::paper_default()
        };
        let ladder = oisa_device::awc::AwcLadder::ideal(awc_params)?;
        let mapper = WeightMapper::from_ladder(ladder)?;
        Ok(Self {
            imager: Imager::new(config.imager)?,
            vam: Vam::new(config.vam)?,
            opc: Opc::new(config.opc)?,
            vom: Vom::new(config.vom)?,
            bank: KernelBank::new(45, config.weight_bits, config.opc.total_rings())?,
            mapper,
            noise: NoiseSource::seeded(config.seed, config.noise),
            controller: Controller::new(config.timing),
            config,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &OisaConfig {
        &self.config
    }

    /// The weight mapper (AWC → ring level tables) in use — shared with
    /// the behavioural deployment path so both quantise identically.
    #[must_use]
    pub fn mapper(&self) -> &WeightMapper {
        &self.mapper
    }

    /// The noise epoch the next convolved frame will key its streams
    /// under — the distributed-execution counterpart of
    /// [`NoiseSource::next_epoch`](oisa_device::noise::NoiseSource::next_epoch).
    #[must_use]
    pub fn next_noise_epoch(&self) -> u64 {
        self.noise.next_epoch()
    }

    /// Fast-forwards the noise-epoch counter to `target`.
    ///
    /// A shard worker executing frames `[a, b)` of a distributed job
    /// aligns its freshly-built accelerator to `base + a` so its frames
    /// draw from exactly the streams a single sequential host would
    /// have used for the same positions.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when `target` is behind the counter
    /// (rewinding could silently reuse consumed noise streams).
    pub fn align_noise_epoch(&mut self, target: u64) -> Result<()> {
        self.noise.advance_to_epoch(target)?;
        Ok(())
    }

    /// Fails, leaving the counter as it is, when reserving `count` more
    /// noise epochs would wrap it: the counter's own check, for a caller
    /// that keys its frames' epochs explicitly and advances the counter
    /// once it is done.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] as [`NoiseSource::reserve_epochs`].
    pub(crate) fn check_noise_epochs(&self, count: u64) -> Result<()> {
        self.noise.clone().reserve_epochs(count)?;
        Ok(())
    }

    /// Stages `kernels` onto the fabric once — tuning the rings and
    /// cycling the kernel bank exactly as one convolution pass sequence
    /// would — **without** computing anything, consuming noise epochs,
    /// or leaving energy in the counters.
    ///
    /// After a prewarm, the fabric sits in the *steady state* a
    /// sequential per-frame loop over the same kernels reaches after
    /// its first frame. That is what lets a stateless shard worker
    /// reproduce mid-stream tuning/memory energies bit-identically: a
    /// shard that does not start at the stream's first frame prewarm's
    /// with the kernel set that produced the fabric state its first
    /// frame would have seen (see
    /// [`FabricEntry`](crate::wire::FabricEntry)).
    ///
    /// # Errors
    ///
    /// Same kernel-validation and mapping contract as
    /// [`OisaAccelerator::convolve_frame`].
    pub fn prewarm(&mut self, kernels: &[Vec<f32>], k: usize) -> Result<()> {
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        let (height, width) = (self.config.imager.height, self.config.imager.width);
        let (ks, plan, _) = self.plan_conv(&planes, k, height, width)?;
        let scales = kernel_scales(&planes);
        let table = RingTable::new(self.config.opc.arm, &self.mapper, &self.config.noise)?;
        for (_, pass_kernels, pass_scales) in conv_passes(&planes, &scales, &plan) {
            self.stage_pass(&table, pass_kernels, pass_scales, ks)?;
        }
        // Staging cycled the kernel bank; the next convolution's memory
        // energy must account only its own accesses.
        self.bank.reset_counters();
        Ok(())
    }

    /// Convolves a captured frame with `kernels` (each `k²` weights,
    /// row-major) at stride 1, running the full optical path as a
    /// one-frame batch of [`OisaAccelerator::convolve_frames`], the
    /// parallel engine (see the module docs).
    ///
    /// Kernels may use any float range; they are normalised per call by
    /// the joint maximum magnitude (per-tensor scaling, as the deployment
    /// path does) and the outputs are scaled back.
    ///
    /// Noise is drawn from counter-based streams keyed by
    /// `(seed, frame epoch, kernel, output position)`, so the result is
    /// bit-identical to [`OisaAccelerator::convolve_frame_sequential`]
    /// regardless of worker-thread count.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for empty or ill-sized kernels
    ///   and for a weight that is not finite.
    /// * [`CoreError::Unmappable`] for unsupported kernel sizes.
    /// * Substrate errors from the optical fabric.
    pub fn convolve_frame(
        &mut self,
        frame: &Frame,
        kernels: &[Vec<f32>],
        k: usize,
    ) -> Result<ConvolutionReport> {
        self.convolve_frames(std::slice::from_ref(frame), kernels, k)?
            .pop()
            .ok_or_else(|| CoreError::InvalidParameter("no frame convolved".into()))
    }

    /// Single-threaded twin of [`OisaAccelerator::convolve_frame`]:
    /// identical physics, identical noise streams, identical energy
    /// reduction order — the strictly serial oracle the parallel engine
    /// is tested against.
    ///
    /// # Errors
    ///
    /// Same contract as [`OisaAccelerator::convolve_frame`].
    pub fn convolve_frame_sequential(
        &mut self,
        frame: &Frame,
        kernels: &[Vec<f32>],
        k: usize,
    ) -> Result<ConvolutionReport> {
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        let (ks, plan, (oh, ow)) = self.plan_conv(&planes, k, frame.height(), frame.width())?;

        // Sense + encode.
        let capture = self.imager.expose(frame)?;
        let encoded = self.vam.encode_capture(&capture)?;
        // Validate the optical frame once up front; every window below
        // reuses the guarantee instead of re-checking k² amplitudes per
        // output pixel.
        validate_optical(&encoded.optical)?;

        let scales = kernel_scales(&planes);
        let mut energy = EnergyReport {
            sensing: capture.energy,
            encoding: encoded.total_energy(),
            ..EnergyReport::default()
        };
        let mut output = zeroed_maps(planes.len(), oh * ow);
        let epoch = self.noise.begin_epoch()?;
        let table = RingTable::new(self.config.opc.arm, &self.mapper, &self.config.noise)?;
        // Each pass stages only after the previous one fully drained.
        for (kernel_index, pass_kernels, pass_scales) in conv_passes(&planes, &scales, &plan) {
            let pass = self.stage_pass(&table, pass_kernels, pass_scales, ks)?;
            energy.tuning += pass.tuning;
            // Hoist the (seed, epoch, slot) key mixing out of the pixel
            // loop: per position only one extra mix remains.
            let slot_streams: Vec<SlotStream> = (0..pass.arms.len())
                .map(|si| self.noise.slot_stream(epoch, (kernel_index + si) as u64))
                .collect();
            // The pass writes its kernels' maps whole: one band of `oh`
            // rows.
            let mut maps: Vec<&mut [f32]> = output[kernel_index..kernel_index + pass.arms.len()]
                .iter_mut()
                .map(Vec::as_mut_slice)
                .collect();
            for oy in 0..oh {
                let partial = eval_row(
                    oy,
                    oy,
                    &mut maps,
                    &encoded.optical,
                    frame.width(),
                    ow,
                    k,
                    &table,
                    &pass.arms,
                    &slot_streams,
                    pass_scales,
                    &self.vom,
                );
                energy.compute += Joule::new(partial.compute);
                energy.aggregation += Joule::new(partial.aggregation);
            }
        }

        // Kernel-bank access energy.
        energy.memory = self.bank.total_energy();
        self.bank.reset_counters();

        Ok(ConvolutionReport {
            output,
            out_h: oh,
            out_w: ow,
            timeline: self.frame_timeline(&plan, oh * ow * planes.len())?,
            plan,
            energy,
        })
    }

    /// Convolves a batch of captured frames with `kernels` in one
    /// engine invocation — the one parallel conv engine;
    /// [`OisaAccelerator::convolve_frame`] is its one-frame batch.
    ///
    /// The engine stages each weight pass once for the whole batch,
    /// forms the pass's arm taps, then spreads `(frame, pass, row-band)`
    /// work items across the work-stealing scheduler
    /// ([`crate::scheduler`]): every worker stays busy until the entire
    /// batch is drained, stealing bands from slower neighbours instead
    /// of idling at a frame boundary. Every frame's feature maps are
    /// allocated before the drain, and each item writes its windows'
    /// values straight into its band's rows of its pass's maps, so each
    /// value is written once and the maps are returned as written.
    ///
    /// **Exactness.** Each frame is keyed to its own noise epoch
    /// (reserved contiguously from the counter once the batch has
    /// validated, so frame `f` draws under the first epoch plus `f`),
    /// partial energies reduce in `(frame, pass, row)` order, and
    /// frame 0 pays the fabric's entry-state tuning cost while later
    /// frames pay the steady-state cost — so the returned reports are
    /// bit-identical, field for field, to calling
    /// [`OisaAccelerator::convolve_frame_sequential`] once per frame in
    /// order, and the accelerator is left in the same state that loop
    /// would leave it in. A layer program's conv stage runs the same
    /// engine over all of a run's frames, under the epochs the program
    /// assigns it ([`crate::program`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`OisaAccelerator::convolve_frame`], plus
    /// [`CoreError::InvalidParameter`] for an empty batch. Frames must
    /// match the imager's dimensions.
    pub fn convolve_frames(
        &mut self,
        frames: &[Frame],
        kernels: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<ConvolutionReport>> {
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        self.convolve_batch(frames, &planes, k)
    }

    /// [`OisaAccelerator::convolve_frames`] over borrowed kernel planes:
    /// the checks, sensing and epoch reservation in front of the batch
    /// engine ([`OisaAccelerator::convolve_sensed`]).
    fn convolve_batch(
        &mut self,
        frames: &[Frame],
        kernels: &[&[f32]],
        k: usize,
    ) -> Result<Vec<ConvolutionReport>> {
        let Some(first) = frames.first() else {
            return Err(CoreError::InvalidParameter("no frames supplied".into()));
        };
        self.plan_conv(kernels, k, first.height(), first.width())?;
        // Phase 1 — sense + encode every frame up front (the imager
        // enforces uniform dimensions). No noise epochs are consumed
        // until the whole batch has validated.
        let sensed = frames
            .iter()
            .map(|frame| self.sense_optical(frame))
            .collect::<Result<Vec<_>>>()?;
        let epochs = FrameEpochs {
            first: self.noise.reserve_epochs(frames.len() as u64)?,
            stride: 1,
        };
        self.convolve_sensed(&sensed, kernels, k, epochs, &mut |_| Ok(()))
    }

    /// The batch engine, phases 2–4, over frames sensed and validated
    /// by [`OisaAccelerator::sense_optical`]: frame `f` draws under
    /// `epochs.of(f)`. The caller owns the epochs; nothing here touches
    /// the noise counter.
    ///
    /// A batch of more than one frame stages its passes twice (phase
    /// 2), and `before_restage` runs between the two stagings: a layer
    /// program replays its later dense stages' exit states there, so
    /// every later frame pays tuning from the state the previous
    /// frame's last optical stage left.
    pub(crate) fn convolve_sensed(
        &mut self,
        sensed: &[Sensed],
        kernels: &[&[f32]],
        k: usize,
        epochs: FrameEpochs,
        before_restage: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<Vec<ConvolutionReport>> {
        let (width, height) = (self.config.imager.width, self.config.imager.height);
        let (ks, plan, (oh, ow)) = self.plan_conv(kernels, k, height, width)?;
        let scales = kernel_scales(kernels);

        // Phase 2 — stage every pass and form its arms' taps. Ring
        // tuning cost depends on the fabric's previous operating point,
        // so the pass sequence is applied twice: the first application
        // records what the batch's first frame pays from the fabric's
        // entry state, the second what every later frame pays from the
        // steady state a per-frame loop would cycle through. (The taps
        // depend only on the staged weights, so they are identical
        // either way; only the tuning energy differs.)
        struct PassCtx {
            kernel_index: usize,
            arms: Vec<Vec<StagedTaps>>,
            tuning_first: Joule,
            tuning_steady: Joule,
        }
        let table = RingTable::new(self.config.opc.arm, &self.mapper, &self.config.noise)?;
        let mut passes: Vec<PassCtx> = Vec::with_capacity(plan.passes);
        for (kernel_index, pass_kernels, pass_scales) in conv_passes(kernels, &scales, &plan) {
            let staged = self.stage_pass(&table, pass_kernels, pass_scales, ks)?;
            passes.push(PassCtx {
                kernel_index,
                arms: staged.arms,
                tuning_first: staged.tuning,
                tuning_steady: staged.tuning,
            });
        }
        let memory_first = self.bank.total_energy();
        self.bank.reset_counters();
        let mut memory_steady = memory_first;
        if sensed.len() > 1 {
            // Steady-state restage: the fabric now holds the last
            // pass's weights — with `before_restage` applied, exactly
            // the state a per-frame loop leaves between frames.
            before_restage(self)?;
            for (pass, (_, pass_kernels, pass_scales)) in
                passes.iter_mut().zip(conv_passes(kernels, &scales, &plan))
            {
                pass.tuning_steady = self
                    .stage_pass(&table, pass_kernels, pass_scales, ks)?
                    .tuning;
            }
            memory_steady = self.bank.total_energy();
            self.bank.reset_counters();
        }

        // Phase 3 — fan `(frame, pass, row-band)` items out over the
        // work-stealing scheduler. Every worker gets several bands over
        // the batch and at least two per `(frame, pass)`, so stealing
        // has slack without shredding locality. A batch of few
        // `(frame, pass)` pairs (a one-frame batch) is cut finer, so a
        // worker the host preempts mid-band holds back few rows. Each
        // item writes its windows' values straight into its band's rows
        // of its pass's maps, the maps the reports return, and its
        // rows' energy partials into a slice of one buffer. Items
        // allocate nothing — the maps, the slices they write and the
        // slot streams they read are all laid out here — because fine
        // bands that allocate on every worker spread the allocator over
        // more arenas and raise peak RSS.
        let n_passes = passes.len();
        let units = sensed.len() * n_passes;
        let band_rows = band_rows(oh, units, rayon::current_num_threads());
        let bands_per_pass = oh.div_ceil(band_rows);
        let mut maps: Vec<Vec<Vec<f32>>> = sensed
            .iter()
            .map(|_| zeroed_maps(kernels.len(), oh * ow))
            .collect();
        // The slices the items write, in `(frame, pass, band, slot)`
        // order: a pass owns its kernels' maps, chunked as
        // `conv_passes` chunks the kernels, and a band the next
        // `band_rows` rows of each of them.
        let mut slices: Vec<&mut [f32]> =
            Vec::with_capacity(sensed.len() * kernels.len() * bands_per_pass);
        let mut bands = Vec::with_capacity(plan.slots_per_pass);
        for frame_maps in &mut maps {
            for pass_maps in frame_maps.chunks_mut(plan.slots_per_pass) {
                bands.clear();
                bands.extend(
                    pass_maps
                        .iter_mut()
                        .map(|map| map.chunks_mut(band_rows * ow)),
                );
                for _ in 0..bands_per_pass {
                    slices.extend(bands.iter_mut().filter_map(Iterator::next));
                }
            }
        }
        // One energy partial per output row, in `(frame, pass, row)`
        // order, so the reduction below replays the sequential engine's
        // exact floating-point grouping.
        let mut row_energies = vec![RowEnergy::default(); units * oh];
        let slot_streams: Vec<Vec<SlotStream>> = (0..units)
            .map(|unit| {
                let pass = &passes[unit % n_passes];
                let epoch = epochs.of(unit / n_passes);
                (0..pass.arms.len())
                    .map(|si| {
                        self.noise
                            .slot_stream(epoch, (pass.kernel_index + si) as u64)
                    })
                    .collect()
            })
            .collect();
        struct BandItem<'a, 'm> {
            unit: usize,
            row0: usize,
            maps: &'a mut [&'m mut [f32]],
            energies: &'a mut [RowEnergy],
        }
        let mut items: Vec<BandItem<'_, '_>> = Vec::with_capacity(units * bands_per_pass);
        let mut rest = slices.as_mut_slice();
        for (unit, energies) in row_energies.chunks_mut(oh).enumerate() {
            let slots = passes[unit % n_passes].arms.len();
            for (band, energies) in energies.chunks_mut(band_rows).enumerate() {
                let (maps, tail) = std::mem::take(&mut rest).split_at_mut(slots);
                rest = tail;
                items.push(BandItem {
                    unit,
                    row0: band * band_rows,
                    maps,
                    energies,
                });
            }
        }
        scheduler::execute(items, |_, item| {
            let pass = &passes[item.unit % n_passes];
            let optical = &sensed[item.unit / n_passes].optical;
            let pass_scales = &scales[pass.kernel_index..pass.kernel_index + pass.arms.len()];
            for (row, energy) in item.energies.iter_mut().enumerate() {
                *energy = eval_row(
                    item.row0 + row,
                    row,
                    item.maps,
                    optical,
                    width,
                    ow,
                    k,
                    &table,
                    &pass.arms,
                    &slot_streams[item.unit],
                    pass_scales,
                    &self.vom,
                );
            }
        });

        // Phase 4 — per frame, the ordered energy reduction and the
        // controller timeline; the maps are already written.
        let mut reports = Vec::with_capacity(sensed.len());
        for (f, (ctx, output)) in sensed.iter().zip(maps).enumerate() {
            let mut energy = EnergyReport {
                sensing: ctx.sensing,
                encoding: ctx.encoding,
                ..EnergyReport::default()
            };
            for (p, pass) in passes.iter().enumerate() {
                let unit = f * n_passes + p;
                energy.tuning += if f == 0 {
                    pass.tuning_first
                } else {
                    pass.tuning_steady
                };
                for row_energy in &row_energies[unit * oh..(unit + 1) * oh] {
                    energy.compute += Joule::new(row_energy.compute);
                    energy.aggregation += Joule::new(row_energy.aggregation);
                }
            }
            energy.memory = if f == 0 { memory_first } else { memory_steady };
            reports.push(ConvolutionReport {
                output,
                out_h: oh,
                out_w: ow,
                plan,
                timeline: self.frame_timeline(&plan, oh * ow * kernels.len())?,
                energy,
            });
        }
        Ok(reports)
    }

    /// Rejects kernels that are not `k × k` or hold a weight that is
    /// not finite, and maps them onto the fabric for `height × width`
    /// frames: the checks every conv entry point runs before it touches
    /// the fabric or the noise epochs.
    /// Returns the kernel size, the mapping plan and the output
    /// `(height, width)`.
    pub(crate) fn plan_conv(
        &self,
        kernels: &[&[f32]],
        k: usize,
        height: usize,
        width: usize,
    ) -> Result<(KernelSize, MappingPlan, (usize, usize))> {
        if let Some(reason) = kernel_set_error(kernels, k) {
            return Err(CoreError::InvalidParameter(reason));
        }
        let ks = KernelSize::from_k(k).map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: height,
            input_w: width,
            stride: 1,
        };
        let plan = MappingPlan::compute(&workload, &self.config.opc)?;
        Ok((ks, plan, workload.output_size()))
    }

    /// Stages one pass end to end — quantise each kernel through the
    /// mapper, store its codes in the kernel bank, tune its rings, stage
    /// its weights through `table` and form each of its arms' taps —
    /// and charges the tuning of exactly the arms it staged. Every conv
    /// path stages through here, so all of them quantise, tune and
    /// charge identically.
    ///
    /// Summing [`Opc::tuning_energy`] instead would re-charge the
    /// *last* load of every arm on the fabric, double-counting earlier
    /// passes (and earlier workloads) on every pass; per-slot accounting
    /// is also what lets a stateless shard worker reproduce mid-stream
    /// tuning energies without the fabric's full load history (see
    /// [`crate::backend`]).
    fn stage_pass(
        &mut self,
        table: &RingTable,
        pass_kernels: &[&[f32]],
        pass_scales: &[f32],
        ks: KernelSize,
    ) -> Result<StagedPass> {
        let slots = assign_slots(pass_kernels.len(), ks, &self.config.opc)?;
        let mut normalised: Vec<f64> = Vec::with_capacity(ks.weights());
        let mut codes: Vec<u16> = Vec::with_capacity(ks.weights());
        let mut bytes: Vec<u8> = Vec::with_capacity(ks.weights());
        let mut tuning = Joule::ZERO;
        let mut arms = Vec::with_capacity(slots.len());
        for ((kn, &scale), &(bank, first_arm)) in pass_kernels.iter().zip(pass_scales).zip(&slots) {
            normalised.clear();
            normalised.extend(kn.iter().map(|&w| f64::from(w / scale)));
            codes.clear();
            bytes.clear();
            for &w in &normalised {
                codes.push(self.mapper.quantize(w)?.code);
                bytes.push(table.stage(w)?);
            }
            let offset = (bank * RINGS_PER_BANK + first_arm * RINGS_PER_ARM) % self.bank.len();
            self.bank.store(offset, &codes)?;
            let used = self
                .opc
                .load_kernel(bank, first_arm, &normalised, &self.mapper)?;
            let staged_bank = self.opc.bank(bank)?;
            for arm in first_arm..first_arm + used {
                tuning += staged_bank.arm(arm)?.tuning_energy();
            }
            // An arm's taps depend only on the weights it holds, so the
            // row tasks read them instead of the fabric, which a later
            // pass re-tunes.
            arms.push(
                bytes
                    .chunks(RINGS_PER_ARM)
                    .map(|arm| table.taps(arm))
                    .collect(),
            );
        }
        Ok(StagedPass {
            slots,
            arms,
            tuning,
        })
    }

    /// The controller timeline of one frame under `plan` that writes
    /// `output_words` values.
    fn frame_timeline(&self, plan: &MappingPlan, output_words: usize) -> Result<Timeline> {
        let program = self.controller.frame_program(plan, output_words as u64);
        self.controller.execute(&program)
    }

    /// Faithful port of the pre-optimisation sequential pipeline: one
    /// mutable noise stream shared by every MAC (order-dependent draws),
    /// a freshly allocated `Vec` per activation window, per-MAC range
    /// validation, and per-call crosstalk/rail-coefficient/full-scale/
    /// time-of-flight evaluation through
    /// [`Arm::mac_reference`](oisa_optics::arm::Arm::mac_reference).
    /// Weight passes stage through the engines' own staging routine,
    /// which is off the hot path.
    ///
    /// Kept as the wall-clock baseline the `perf_json` benchmark and the
    /// acceptance speedup are measured against. Its outputs differ from
    /// [`OisaAccelerator::convolve_frame`] only through the noise
    /// drawing scheme (stateful stream vs. counter-based streams); with
    /// noise disabled the two pipelines agree exactly.
    ///
    /// # Errors
    ///
    /// Same contract as [`OisaAccelerator::convolve_frame`].
    pub fn convolve_frame_reference(
        &mut self,
        frame: &Frame,
        kernels: &[Vec<f32>],
        k: usize,
    ) -> Result<ConvolutionReport> {
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        let (ks, plan, (oh, ow)) = self.plan_conv(&planes, k, frame.height(), frame.width())?;

        let capture = self.imager.expose(frame)?;
        let encoded = self.vam.encode_capture(&capture)?;

        let scales = kernel_scales(&planes);
        let mut energy = EnergyReport {
            sensing: capture.energy,
            encoding: encoded.total_energy(),
            ..EnergyReport::default()
        };
        let mut output = vec![vec![0.0f32; oh * ow]; kernels.len()];
        let table = RingTable::new(self.config.opc.arm, &self.mapper, &self.config.noise)?;

        for (kernel_index, pass_kernels, pass_scales) in conv_passes(&planes, &scales, &plan) {
            let pass = self.stage_pass(&table, pass_kernels, pass_scales, ks)?;
            energy.tuning += pass.tuning;

            for oy in 0..oh {
                for ox in 0..ow {
                    let window = gather_window(&encoded.optical, frame.width(), oy, ox, k);
                    for (slot_idx, &(bank, first_arm)) in pass.slots.iter().enumerate() {
                        let value = self.evaluate_kernel_reference(
                            bank,
                            first_arm,
                            &window,
                            ks,
                            &mut energy,
                        )?;
                        output[kernel_index + slot_idx][oy * ow + ox] =
                            (value * f64::from(pass_scales[slot_idx])) as f32;
                    }
                }
            }
        }

        energy.memory = self.bank.total_energy();
        self.bank.reset_counters();

        Ok(ConvolutionReport {
            output,
            out_h: oh,
            out_w: ow,
            timeline: self.frame_timeline(&plan, oh * ow * kernels.len())?,
            plan,
            energy,
        })
    }

    /// Evaluates one kernel the pre-optimisation way (see
    /// [`OisaAccelerator::convolve_frame_reference`]).
    fn evaluate_kernel_reference(
        &mut self,
        bank: usize,
        first_arm: usize,
        window: &[f64],
        ks: KernelSize,
        energy: &mut EnergyReport,
    ) -> Result<f64> {
        let arms = ks.arms_per_kernel();
        if arms == 1 {
            let result = self
                .opc
                .bank(bank)?
                .arm(first_arm)?
                .mac_reference(window, &mut self.noise)?;
            energy.compute += result.optical_energy;
            Ok(result.value)
        } else {
            let mut partials = Vec::with_capacity(arms);
            for (i, chunk) in window.chunks(RINGS_PER_ARM).enumerate() {
                let r = self
                    .opc
                    .bank(bank)?
                    .arm(first_arm + i)?
                    .mac_reference(chunk, &mut self.noise)?;
                energy.compute += r.optical_energy;
                partials.push(r);
            }
            let agg = self.vom.accumulate(&partials)?;
            energy.aggregation += agg.energy;
            Ok(agg.value)
        }
    }

    /// Convolves a multi-channel input (e.g. RGB): one [`Frame`] per
    /// input channel, one kernel *plane* per (output, input) channel
    /// pair. Per-channel partial feature maps are accumulated through
    /// the VOM, as the paper's first-layer mapping does for
    /// multi-channel CNNs.
    ///
    /// `kernels[oc][ic]` holds the `k²` weights of output channel `oc`
    /// applied to input channel `ic`.
    ///
    /// Every channel's kernel planes and frame are checked, and the
    /// channels' noise epochs reserved, before the first channel runs,
    /// so a refused call moves neither the counter nor the fabric.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for empty inputs or mismatched
    ///   channel counts/shapes, and as
    ///   [`OisaAccelerator::convolve_frame`] for any channel.
    /// * Substrate errors from the optical fabric.
    pub fn convolve_channels(
        &mut self,
        frames: &[Frame],
        kernels: &[Vec<Vec<f32>>],
        k: usize,
    ) -> Result<ConvolutionReport> {
        if frames.is_empty() || kernels.is_empty() {
            return Err(CoreError::InvalidParameter(
                "need at least one input channel and one kernel".into(),
            ));
        }
        let in_ch = frames.len();
        if kernels.iter().any(|planes| planes.len() != in_ch) {
            return Err(CoreError::InvalidParameter(format!(
                "every kernel needs {in_ch} planes (one per input channel)"
            )));
        }
        // Channel `ic` is a one-frame batch of its own, checked in
        // channel order as `convolve_frame` checks one.
        let planes: Vec<Vec<&[f32]>> = (0..in_ch)
            .map(|ic| kernels.iter().map(|kn| kn[ic].as_slice()).collect())
            .collect();
        let mut sensed = Vec::with_capacity(in_ch);
        for (planes, frame) in planes.iter().zip(frames) {
            self.plan_conv(planes, k, frame.height(), frame.width())?;
            sensed.push(self.sense_optical(frame)?);
        }
        let first = self.noise.reserve_epochs(in_ch as u64)?;
        let mut combined: Option<ConvolutionReport> = None;
        for (ic, (planes, sensed)) in planes.iter().zip(&sensed).enumerate() {
            let epochs = FrameEpochs {
                first: first + ic as u64,
                stride: 1,
            };
            let partial = self
                .convolve_sensed(std::slice::from_ref(sensed), planes, k, epochs, &mut |_| {
                    Ok(())
                })?
                .pop()
                .ok_or_else(|| CoreError::InvalidParameter("no channel convolved".into()))?;
            combined = Some(match combined {
                None => partial,
                Some(mut acc) => {
                    // Electrical accumulation of per-channel partial maps
                    // in the VOM.
                    for (dst, src) in acc.output.iter_mut().zip(&partial.output) {
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += *s;
                        }
                    }
                    acc.energy.sensing += partial.energy.sensing;
                    acc.energy.encoding += partial.energy.encoding;
                    acc.energy.tuning += partial.energy.tuning;
                    acc.energy.compute += partial.energy.compute;
                    acc.energy.memory += partial.energy.memory;
                    // One VOM accumulation per output value per extra
                    // channel.
                    let adds = acc.output.len() * acc.out_h * acc.out_w;
                    acc.energy.aggregation += partial.energy.aggregation
                        + self.vom.config().accumulate_energy * adds as f64;
                    acc.timeline.capture += partial.timeline.capture;
                    acc.timeline.mapping += partial.timeline.mapping;
                    acc.timeline.compute += partial.timeline.compute;
                    acc.timeline.transmit += partial.timeline.transmit;
                    acc.timeline.control += partial.timeline.control;
                    acc
                }
            });
        }
        combined.ok_or_else(|| CoreError::InvalidParameter("no channels convolved".into()))
    }

    /// Executes a dense (MLP) first layer on a captured frame: the frame
    /// is sensed and ternary-encoded, then each of the `rows × (w·h)`
    /// weight rows is chunked across arms and VOM-aggregated (paper
    /// §III-A's MLP path).
    ///
    /// Rows evaluate in parallel from the matrix staged once per call
    /// (as in [`crate::mlp::matvec_parallel`]); the result is
    /// bit-identical to [`crate::mlp::matvec`], the serial oracle, on
    /// the encoded frame.
    ///
    /// # Errors
    ///
    /// Propagates sensing, shape and fabric failures.
    pub fn dense_layer(
        &mut self,
        frame: &Frame,
        matrix: &[f32],
        rows: usize,
    ) -> Result<crate::mlp::MatVecReport> {
        let input = self.sense(frame)?.optical;
        self.dense_vector(&input, matrix, rows)
    }

    /// Executes a dense layer on a raw activation vector already in the
    /// optical domain (`[0, 1]`) — the mid-program dense path of a
    /// [layer program](crate::program): unlike
    /// [`OisaAccelerator::dense_layer`] no frame is sensed or encoded,
    /// the predecessor stage's output drives the arms directly.
    ///
    /// This is [`crate::mlp::matvec_parallel`] on the accelerator's
    /// fabric: a one-frame call of the staged dense engine, which
    /// consumes one noise epoch, exactly as
    /// [`OisaAccelerator::dense_layer`] does.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for shape mismatches or inputs
    /// outside `[0, 1]`; substrate errors from the optical fabric.
    pub fn dense_vector(
        &mut self,
        input: &[f64],
        matrix: &[f32],
        rows: usize,
    ) -> Result<crate::mlp::MatVecReport> {
        crate::mlp::matvec_parallel(
            &mut self.opc,
            &self.vom,
            &self.mapper,
            matrix,
            rows,
            input.len(),
            input,
            &mut self.noise,
        )
    }

    /// The staged dense engine ([`crate::mlp::matvec_parallel`]'s) on
    /// the accelerator's fabric over many frames' inputs, frame `f`
    /// drawing under `epochs.of(f)`: a layer program's dense stage. The
    /// caller checked the shape and the inputs, took the matrix's
    /// [`matrix_scale`](crate::mlp::matrix_scale) and owns the epochs.
    pub(crate) fn dense_frames<T: Copy + Into<f64> + Sync>(
        &mut self,
        matrix: &[f32],
        scale: f32,
        rows: usize,
        cols: usize,
        inputs: &[&[T]],
        epochs: FrameEpochs,
    ) -> Result<Vec<crate::mlp::MatVecReport>> {
        crate::mlp::matvec_frames(
            &mut self.opc,
            &self.vom,
            &self.mapper,
            matrix,
            scale,
            rows,
            cols,
            inputs,
            &self.noise,
            epochs,
        )
    }

    /// Senses `frame` and encodes it into the VAM's optical domain, the
    /// input a frame-consuming stage drives the arms with, keeping what
    /// both steps cost.
    pub(crate) fn sense(&self, frame: &Frame) -> Result<Sensed> {
        let capture = self.imager.expose(frame)?;
        let encoded = self.vam.encode_capture(&capture)?;
        Ok(Sensed {
            sensing: capture.energy,
            encoding: encoded.total_energy(),
            optical: encoded.optical,
        })
    }

    /// [`OisaAccelerator::sense`] for an engine that drives the arms with
    /// the frame, which validates it once so no window or chunk is
    /// checked.
    pub(crate) fn sense_optical(&self, frame: &Frame) -> Result<Sensed> {
        let sensed = self.sense(frame)?;
        validate_optical(&sensed.optical)?;
        Ok(sensed)
    }

    /// Stages the fabric into the exit state one dense `rows × cols`
    /// matvec over `matrix` leaves behind — **without** computing
    /// anything or consuming noise epochs. The dense analogue of
    /// [`OisaAccelerator::prewarm`]: a shard worker entering a layer
    /// program mid-stream replays each dense stage's exit state so its
    /// first frame pays steady-state tuning cost exactly like the
    /// sequential loop (see
    /// [`OisaAccelerator::prewarm_program`](crate::program)).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a matrix that is not
    /// `rows × cols` (including a shape whose size overflows `usize`)
    /// or holds a weight that is not finite, before any arm loads;
    /// substrate errors from the optical fabric.
    pub fn prewarm_dense(&mut self, matrix: &[f32], rows: usize, cols: usize) -> Result<()> {
        crate::mlp::check_shape(matrix.len(), rows, cols)?;
        let scale = crate::mlp::matrix_scale(matrix).map_err(CoreError::InvalidParameter)?;
        self.replay_dense(matrix, scale, rows, cols)
    }

    /// [`OisaAccelerator::prewarm_dense`] for a caller that checked the
    /// shape and took the matrix's [`matrix_scale`](crate::mlp::matrix_scale).
    pub(crate) fn replay_dense(
        &mut self,
        matrix: &[f32],
        scale: f32,
        rows: usize,
        cols: usize,
    ) -> Result<()> {
        crate::mlp::replay_exit_state(&mut self.opc, &self.mapper, matrix, scale, rows, cols)
    }
}

/// Maximum supported window size (7×7).
const MAX_WINDOW: usize = 49;
/// Maximum arms one kernel spans (7×7 → 5 arms).
const MAX_ARMS: usize = 5;

/// The noise epochs of an engine call's frames: frame `f` draws under
/// `first + f · stride`. A stand-alone call reserves its frames' epochs
/// from the accelerator's counter (stride 1); a layer program hands
/// each optical stage its own epochs, stride
/// [`LayerProgram::epochs_per_frame`](crate::program::LayerProgram::epochs_per_frame).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameEpochs {
    pub(crate) first: u64,
    pub(crate) stride: u64,
}

impl FrameEpochs {
    /// The epoch frame `f` draws under. Whoever reserved the epochs
    /// checked that the last one fits the counter.
    pub(crate) fn of(self, frame: usize) -> u64 {
        self.first + frame as u64 * self.stride
    }
}

/// A frame sensed and encoded by [`OisaAccelerator::sense`].
pub(crate) struct Sensed {
    /// The VAM's optical amplitudes, one per pixel.
    pub(crate) optical: Vec<f64>,
    sensing: Joule,
    encoding: Joule,
}

/// Per-row energy partial reduced in row order after a pass.
#[derive(Debug, Default, Clone, Copy)]
struct RowEnergy {
    compute: f64,
    aggregation: f64,
}

/// Names what is wrong with a kernel set that is empty, holds a kernel
/// that is not `k × k` weights or holds a weight that is not finite
/// (the first one, by kernel and index): the one kernel check the conv
/// engines, [`LayerProgram::validate`](crate::program::LayerProgram::validate)
/// and [`ComputeBackend::check_workload`](crate::backend::ComputeBackend::check_workload)
/// share, so every conv path refuses such a set before it touches the
/// fabric or the noise epochs. `k` may come from decoded bytes, so its
/// square is checked: a side whose square overflows `usize` matches no
/// kernel instead of wrapping onto one.
pub(crate) fn kernel_set_error<K: AsRef<[f32]>>(kernels: &[K], k: usize) -> Option<String> {
    if kernels.is_empty() {
        return Some("no kernels supplied".into());
    }
    let weights = k.checked_mul(k);
    if kernels.iter().any(|kn| Some(kn.as_ref().len()) != weights) {
        return Some(format!("every kernel must have {k}x{k} weights"));
    }
    kernels.iter().enumerate().find_map(|(kernel, kn)| {
        let (index, w) = kn
            .as_ref()
            .iter()
            .enumerate()
            .find(|(_, w)| !w.is_finite())?;
        Some(format!(
            "kernel {kernel} weight {index} is {w}: weights must be finite"
        ))
    })
}

/// Validates an encoded optical frame once so the hot loop can skip the
/// per-window range check.
fn validate_optical(optical: &[f64]) -> Result<()> {
    if let Some(i) = optical.iter().position(|a| !(0.0..=1.0).contains(a)) {
        return Err(CoreError::InvalidParameter(format!(
            "encoded optical amplitude {} at pixel {i} outside [0, 1]",
            optical[i]
        )));
    }
    Ok(())
}

/// One staged weight pass, ready to drain: where its kernels sit, the
/// taps of the arms the row tasks evaluate and the tuning energy the
/// pass is charged. Produced by [`OisaAccelerator::stage_pass`].
struct StagedPass {
    /// `(bank, first arm)` of each kernel in the pass.
    slots: Vec<(usize, usize)>,
    /// Per slot, the taps of each arm its kernel occupies.
    arms: Vec<Vec<StagedTaps>>,
    /// Tuning energy of exactly the arms this pass staged.
    tuning: Joule,
}

/// The weight passes of a kernel set under `plan`, in staging order:
/// each pass's first kernel index, its kernels and their scales.
fn conv_passes<'a, 'k>(
    kernels: &'a [&'k [f32]],
    scales: &'a [f32],
    plan: &MappingPlan,
) -> impl Iterator<Item = (usize, &'a [&'k [f32]], &'a [f32])> {
    let spp = plan.slots_per_pass;
    kernels
        .chunks(spp)
        .zip(scales.chunks(spp))
        .enumerate()
        .map(move |(p, (pass_kernels, pass_scales))| (p * spp, pass_kernels, pass_scales))
}

/// The rows of a batch engine work item: `oh` output rows per
/// `(frame, pass)`, `units` such pairs, `threads` workers.
fn band_rows(oh: usize, units: usize, threads: usize) -> usize {
    oh.div_ceil((threads * 16).div_ceil(units).max(threads * 2))
        .clamp(1, oh.max(1))
}

/// `n` zeroed feature maps of `len` values, each allocated on its own:
/// maps cloned from one zeroed map would be copied page by page on the
/// calling thread, where a fresh zeroed allocation leaves its pages to
/// whoever first writes them.
fn zeroed_maps(n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n).map(|_| vec![0.0f32; len]).collect()
}

/// Per-kernel weight normalisation scales: each kernel's arm carries
/// its own receiver gain, so every kernel uses its full dynamic range
/// (this is what keeps 1-bit weights usable).
fn kernel_scales(kernels: &[&[f32]]) -> Vec<f32> {
    kernels
        .iter()
        .map(|kn| {
            kn.iter()
                .fold(0.0f32, |m, w| m.max(w.abs()))
                .max(f32::MIN_POSITIVE)
        })
        .collect()
}

/// Evaluates output row `oy` of one pass against the taps its arms
/// hold and writes slot `si`'s value at `x` to `maps[si][row · ow + x]`
/// — the shared hot loop and the one write path of the serial oracle,
/// whose `maps` are the pass's whole maps (`row == oy`), and of the
/// batch engine's `(frame, pass, row-band)` work items, whose `maps`
/// are their band's rows of those maps. Windows gather into a stack
/// scratch array, noise comes from the counter-addressed slot streams,
/// and multi-arm kernels aggregate through the VOM.
///
/// Every window goes through [`RingTable::fused_mac`], the fused MAC a
/// dense chunk runs too, which folds the taps the pass formed and draws
/// three Gaussians per arm: one per detector rail and one for the
/// detector. A multi-arm kernel's arms share the window's stream, arm
/// `i` starting at counter `i · COUNTER_STRIDE`.
#[allow(clippy::too_many_arguments)]
fn eval_row(
    oy: usize,
    row: usize,
    maps: &mut [&mut [f32]],
    optical: &[f64],
    width: usize,
    ow: usize,
    k: usize,
    table: &RingTable,
    slot_arms: &[Vec<StagedTaps>],
    slot_streams: &[SlotStream],
    pass_scales: &[f32],
    vom: &Vom,
) -> RowEnergy {
    let k2 = k * k;
    let at = row * ow;
    let mut partial = RowEnergy::default();
    let mut scratch = [0.0f64; MAX_WINDOW];
    for ox in 0..ow {
        for dy in 0..k {
            let src = (oy + dy) * width + ox;
            scratch[dy * k..dy * k + k].copy_from_slice(&optical[src..src + k]);
        }
        let window = &scratch[..k2];
        let position = (oy * ow + ox) as u64;
        for (si, arms) in slot_arms.iter().enumerate() {
            let stream = slot_streams[si].at(position);
            let value = if arms.len() == 1 {
                let (value, e) = table.fused_mac(&arms[0], window, &stream, 0);
                partial.compute += e;
                value
            } else {
                let mut values = [0.0f64; MAX_ARMS];
                let mut base = 0u64;
                for (ai, chunk) in window.chunks(RINGS_PER_ARM).enumerate() {
                    let (value, e) = table.fused_mac(&arms[ai], chunk, &stream, base);
                    values[ai] = value;
                    partial.compute += e;
                    base += COUNTER_STRIDE;
                }
                let (value, agg) = vom.accumulate_values(&values[..arms.len()]);
                partial.aggregation += agg;
                value
            };
            maps[si][at + ox] = (value * f64::from(pass_scales[si])) as f32;
        }
    }
    partial
}

/// Extracts the `k×k` activation window at output position `(oy, ox)`
/// from a row-major optical frame, allocating a fresh `Vec` — the
/// pre-optimisation gather kept for the reference pipeline.
fn gather_window(optical: &[f64], width: usize, oy: usize, ox: usize, k: usize) -> Vec<f64> {
    let mut window = Vec::with_capacity(k * k);
    for dy in 0..k {
        let row = (oy + dy) * width + ox;
        window.extend_from_slice(&optical[row..row + k]);
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> OisaAccelerator {
        OisaAccelerator::new(OisaConfig::small_test()).unwrap()
    }

    /// Reference float convolution with the same ternary front end.
    fn reference_conv(
        frame: &Frame,
        kernel: &[f32],
        k: usize,
        vam: &Vam,
        imager: &Imager,
    ) -> Vec<f32> {
        let capture = imager.expose(frame).unwrap();
        let encoded = vam.encode_capture(&capture).unwrap();
        let w = frame.width();
        let oh = frame.height() - k + 1;
        let ow = w - k + 1;
        let mut out = vec![0.0f32; oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f64;
                for dy in 0..k {
                    for dx in 0..k {
                        let a = encoded.optical[(oy + dy) * w + ox + dx];
                        acc += a * f64::from(kernel[dy * k + dx]);
                    }
                }
                out[oy * ow + ox] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn optical_conv_matches_reference_3x3() {
        let mut accel = accel();
        let mut data = vec![0.2; 256];
        for (i, v) in data.iter_mut().enumerate() {
            *v = (0.2 + 0.75 * ((i % 7) as f64 / 7.0)).min(1.0);
        }
        let frame = Frame::new(16, 16, data).unwrap();
        let kernel: Vec<f32> = vec![0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let report = accel
            .convolve_frame(&frame, std::slice::from_ref(&kernel), 3)
            .unwrap();
        let reference = reference_conv(
            &frame,
            &kernel,
            3,
            &Vam::new(VamConfig::paper_default()).unwrap(),
            &Imager::new(ImagerConfig::paper_default(16, 16)).unwrap(),
        );
        assert_eq!(report.output[0].len(), reference.len());
        let max_dev = report.output[0]
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // 4-bit quantisation over a 9-element window.
        assert!(max_dev < 0.35, "max deviation {max_dev}");
    }

    #[test]
    fn multiple_kernels_produce_independent_maps() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.9).unwrap();
        let pos = vec![1.0f32; 9];
        let neg = vec![-1.0f32; 9];
        let report = accel.convolve_frame(&frame, &[pos, neg], 3).unwrap();
        assert_eq!(report.output.len(), 2);
        assert!(report.output[0][0] > 7.0);
        assert!(report.output[1][0] < -7.0);
    }

    #[test]
    fn five_by_five_kernel_uses_vom() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.9).unwrap();
        let kernel = vec![0.5f32; 25];
        let report = accel.convolve_frame(&frame, &[kernel], 5).unwrap();
        // Σ 0.5 × 1.0 over 25 taps ≈ 12.5 (ternary encode of 0.9 → 1.0).
        let v = report.output[0][0];
        assert!((v - 12.5).abs() < 1.5, "got {v}");
        assert!(report.energy.aggregation.get() > 0.0, "VOM must be used");
    }

    #[test]
    fn energy_report_phases_populated() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.5).unwrap();
        let report = accel.convolve_frame(&frame, &[vec![0.5f32; 9]], 3).unwrap();
        assert!(report.energy.sensing.get() > 0.0);
        assert!(report.energy.encoding.get() > 0.0);
        assert!(report.energy.tuning.get() > 0.0);
        assert!(report.energy.compute.get() > 0.0);
        assert!(report.energy.memory.get() > 0.0);
        assert!(report.energy.total().get() > report.energy.compute.get());
        assert!(report.timeline.total().get() > 0.0);
    }

    #[test]
    fn kernel_validation() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.5).unwrap();
        assert!(accel.convolve_frame(&frame, &[], 3).is_err());
        assert!(accel.convolve_frame(&frame, &[vec![0.5f32; 8]], 3).is_err());
        assert!(accel
            .convolve_frame(&frame, &[vec![0.5f32; 16]], 4)
            .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let frame = Frame::constant(16, 16, 0.7).unwrap();
        let kernel = vec![0.3f32; 9];
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 42;
        let mut a = OisaAccelerator::new(cfg).unwrap();
        let mut b = OisaAccelerator::new(cfg).unwrap();
        let ra = a
            .convolve_frame(&frame, std::slice::from_ref(&kernel), 3)
            .unwrap();
        let rb = b.convolve_frame(&frame, &[kernel], 3).unwrap();
        assert_eq!(ra.output, rb.output);
    }

    #[test]
    fn multichannel_convolution_sums_planes() {
        let mut accel = accel();
        // Two constant channels; kernels that sum each channel's window.
        let bright = Frame::constant(16, 16, 0.9).unwrap();
        let dark = Frame::constant(16, 16, 0.1).unwrap();
        // One output channel: plane 0 all +1, plane 1 all −1.
        let kernels = vec![vec![vec![1.0f32; 9], vec![-1.0f32; 9]]];
        let report = accel
            .convolve_channels(&[bright.clone(), dark], &kernels, 3)
            .unwrap();
        // Channel encodings: 0.9 → 1.0 optical, 0.1 → floor ≈ 0.022.
        // Output ≈ 9·1.0 − 9·0.022 ≈ 8.8.
        let v = report.output[0][0];
        assert!((v - 8.8).abs() < 0.5, "got {v}");
        // Aggregation energy must include the cross-channel adds.
        assert!(report.energy.aggregation.get() > 0.0);

        // Single-channel sanity: same kernels on one channel only.
        let single = accel
            .convolve_frame(&bright, &[vec![1.0f32; 9]], 3)
            .unwrap();
        assert!(single.output[0][0] > 8.0);
    }

    #[test]
    fn multichannel_validation() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.5).unwrap();
        // Kernel with wrong plane count.
        let kernels = vec![vec![vec![1.0f32; 9]]]; // 1 plane for 2 channels
        assert!(accel
            .convolve_channels(&[frame.clone(), frame.clone()], &kernels, 3)
            .is_err());
        assert!(accel.convolve_channels(&[], &[], 3).is_err());
    }

    #[test]
    fn parallel_and_sequential_pipelines_bit_identical() {
        // Force real worker threads even on single-CPU hosts so the
        // parity claim is exercised, not vacuous. Thread count never
        // affects results by design.
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(3);
        let mut data = vec![0.0f64; 256];
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((i % 11) as f64 / 11.0 + (i / 16) as f64 / 32.0).clamp(0.0, 1.0);
        }
        let frame = Frame::new(16, 16, data).unwrap();
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 7;

        // 3×3, multi-pass (25 kernels over 20 slots) and 5×5 (VOM).
        let kernels3: Vec<Vec<f32>> = (0..25)
            .map(|i| (0..9).map(|j| ((i * 5 + j) as f32 * 0.61).sin()).collect())
            .collect();
        let kernels5 = vec![vec![0.4f32; 25], vec![-0.2f32; 25]];

        for (kernels, k) in [(&kernels3, 3usize), (&kernels5, 5usize)] {
            let mut par = OisaAccelerator::new(cfg).unwrap();
            let mut seq = OisaAccelerator::new(cfg).unwrap();
            let rp = par.convolve_frame(&frame, kernels, k).unwrap();
            let rs = seq.convolve_frame_sequential(&frame, kernels, k).unwrap();
            assert_eq!(rp.output, rs.output, "k={k} outputs must be bit-identical");
            assert_eq!(rp.energy, rs.energy, "k={k} energy must be bit-identical");
            assert_eq!(rp.timeline, rs.timeline);
        }
    }

    #[test]
    fn multi_pass_frames_charge_tuning_exactly_once_per_pass() {
        // 25 kernels on the 20-slot test fabric = 2 passes, each staged
        // through the one staging routine. The double-count class of
        // bug — charging fabric-lifetime tuning energy instead of
        // per-slot pass energy — would grow the charge on every
        // repeated frame; the steady-state cycle must instead be
        // exactly repeatable, and the parallel engine's one-frame
        // batches must charge what the strictly serial engine charges.
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(3);
        let frame = Frame::constant(16, 16, 0.6).unwrap();
        let kernels: Vec<Vec<f32>> = (0..25)
            .map(|i| (0..9).map(|j| ((i * 7 + j) as f32 * 0.37).sin()).collect())
            .collect();
        let cfg = OisaConfig::small_test();
        let mut par = OisaAccelerator::new(cfg).unwrap();
        let mut seq = OisaAccelerator::new(cfg).unwrap();
        let tp: Vec<Joule> = (0..3)
            .map(|_| {
                par.convolve_frame(&frame, &kernels, 3)
                    .unwrap()
                    .energy
                    .tuning
            })
            .collect();
        let ts: Vec<Joule> = (0..3)
            .map(|_| {
                seq.convolve_frame_sequential(&frame, &kernels, 3)
                    .unwrap()
                    .energy
                    .tuning
            })
            .collect();
        assert!(tp[1] > Joule::ZERO);
        // Steady state (runs 2 and 3 both start from pass 2's fabric
        // state) repeats exactly; accumulation would make t[2] > t[1].
        assert_eq!(tp[1], tp[2], "steady-state tuning must not accumulate");
        assert_eq!(
            tp, ts,
            "the parallel engine must charge what serial charges"
        );
    }

    #[test]
    fn optimised_pipeline_matches_reference_noiselessly() {
        // With noise disabled the counter-stream and stateful draws are
        // both identity, so the optimised pipeline must reproduce the
        // pre-optimisation reference exactly.
        let mut data = vec![0.0f64; 256];
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((i % 7) as f64 / 7.0).clamp(0.0, 1.0);
        }
        let frame = Frame::new(16, 16, data).unwrap();
        let kernels: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..9).map(|j| ((i * 3 + j) as f32 * 0.45).cos()).collect())
            .collect();
        let cfg = OisaConfig::small_test();
        let mut fast = OisaAccelerator::new(cfg).unwrap();
        let mut slow = OisaAccelerator::new(cfg).unwrap();
        let rf = fast.convolve_frame(&frame, &kernels, 3).unwrap();
        let rr = slow.convolve_frame_reference(&frame, &kernels, 3).unwrap();
        assert_eq!(rf.output, rr.output);
        // Energy matches up to reduction grouping (row partials vs one
        // running sum).
        let rel =
            (rf.energy.total().get() - rr.energy.total().get()).abs() / rr.energy.total().get();
        assert!(rel < 1e-9, "energy drift {rel}");
    }

    #[test]
    fn batch_bit_identical_to_per_frame_sequential_loop() {
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(3);
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 31;
        let frames: Vec<Frame> = (0..5)
            .map(|f| {
                let data: Vec<f64> = (0..256)
                    .map(|i| ((i * (f + 2)) % 13) as f64 / 13.0)
                    .collect();
                Frame::new(16, 16, data).unwrap()
            })
            .collect();
        // 25 kernels → 2 passes on the 20-slot test fabric, plus a 5×5
        // (VOM-aggregated) workload.
        let kernels3: Vec<Vec<f32>> = (0..25)
            .map(|i| (0..9).map(|j| ((i * 5 + j) as f32 * 0.61).sin()).collect())
            .collect();
        let kernels5 = vec![vec![0.4f32; 25], vec![-0.2f32; 25]];
        for (kernels, k) in [(&kernels3, 3usize), (&kernels5, 5usize)] {
            let mut batch = OisaAccelerator::new(cfg).unwrap();
            let mut serial = OisaAccelerator::new(cfg).unwrap();
            let batched = batch.convolve_frames(&frames, kernels, k).unwrap();
            let looped: Vec<ConvolutionReport> = frames
                .iter()
                .map(|f| serial.convolve_frame_sequential(f, kernels, k).unwrap())
                .collect();
            assert_eq!(
                batched, looped,
                "k={k} batch must equal the sequential loop"
            );
            // And both accelerators continue identically afterwards
            // (same fabric state, same noise epoch).
            assert_eq!(
                batch.convolve_frame(&frames[0], kernels, k).unwrap(),
                serial.convolve_frame(&frames[0], kernels, k).unwrap(),
                "k={k} post-batch state must match the loop's"
            );
        }
    }

    #[test]
    fn single_frame_batch_matches_sequential_call() {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 8;
        let frame = Frame::constant(16, 16, 0.6).unwrap();
        let kernels = vec![vec![0.3f32; 9], vec![-0.7f32; 9]];
        let mut a = OisaAccelerator::new(cfg).unwrap();
        let mut b = OisaAccelerator::new(cfg).unwrap();
        let batched = a
            .convolve_frames(std::slice::from_ref(&frame), &kernels, 3)
            .unwrap();
        let single = b.convolve_frame_sequential(&frame, &kernels, 3).unwrap();
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0], single);
    }

    #[test]
    fn batch_validation() {
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.5).unwrap();
        assert!(accel.convolve_frames(&[], &[vec![0.5f32; 9]], 3).is_err());
        assert!(accel
            .convolve_frames(std::slice::from_ref(&frame), &[], 3)
            .is_err());
        assert!(accel
            .convolve_frames(std::slice::from_ref(&frame), &[vec![0.5f32; 8]], 3)
            .is_err());
        // Frame not matching the imager dimensions.
        let wrong = Frame::constant(8, 8, 0.5).unwrap();
        assert!(accel
            .convolve_frames(&[frame, wrong], &[vec![0.5f32; 9]], 3)
            .is_err());
    }

    #[test]
    fn dense_layer_parallel_matches_serial_oracle() {
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(3);
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 77;
        let frame = Frame::constant(16, 16, 0.55).unwrap();
        let rows = 6;
        let matrix: Vec<f32> = (0..rows * 256).map(|i| (i as f32 * 0.11).sin()).collect();
        let mut parallel = OisaAccelerator::new(cfg).unwrap();
        let mut serial = OisaAccelerator::new(cfg).unwrap();
        let rp = parallel.dense_layer(&frame, &matrix, rows).unwrap();
        let input = serial.sense(&frame).unwrap().optical;
        let rs = crate::mlp::matvec(
            &mut serial.opc,
            &serial.vom,
            &serial.mapper,
            &matrix,
            rows,
            input.len(),
            &input,
            &mut serial.noise,
        )
        .unwrap();
        assert_eq!(rp, rs);
        // The engines also leave the fabric in the same operating
        // point, so interleaved dense + conv workloads keep identical
        // energy accounting (ring tuning cost is state-dependent).
        let kernels = vec![vec![0.4f32; 9], vec![-0.6f32; 9]];
        assert_eq!(
            parallel.convolve_frame(&frame, &kernels, 3).unwrap(),
            serial.convolve_frame(&frame, &kernels, 3).unwrap(),
            "post-dense fabric state must match the serial oracle's"
        );
    }

    #[test]
    fn noisy_windows_equal_the_fabric_arms_that_hold_them() {
        // The engines evaluate windows from ring-table taps and never
        // read an arm. Under paper noise, re-evaluate windows through
        // `Arm::mac` on the fabric arms the pass loaded — arms that
        // carry earlier passes' tuning history — with arm `i` of a
        // window drawing from counter `3·i` of the window's stream, and
        // aggregate and scale back as the engines do.
        let mut cfg = OisaConfig::small_test();
        cfg.noise = NoiseConfig::paper_default();
        cfg.seed = 23;
        let data: Vec<f64> = (0..256).map(|i| ((i * 7) % 17) as f64 / 17.0).collect();
        let frame = Frame::new(16, 16, data).unwrap();
        let kernel_set = |count: usize, k: usize| -> Vec<Vec<f32>> {
            (0..count)
                .map(|i| {
                    (0..k * k)
                        .map(|j| ((i * 13 + j) as f32 * 0.53).sin())
                        .collect()
                })
                .collect()
        };
        let mut accel = OisaAccelerator::new(cfg).unwrap();
        // Two passes of history on every arm the sets below reuse.
        accel
            .convolve_frame_sequential(&frame, &kernel_set(25, 3), 3)
            .unwrap();
        let optical = accel.sense(&frame).unwrap().optical;
        for (kernels, k) in [(kernel_set(7, 3), 3usize), (kernel_set(3, 5), 5)] {
            let epoch = accel.next_noise_epoch();
            let report = accel
                .convolve_frame_sequential(&frame, &kernels, k)
                .unwrap();
            assert_eq!(report.plan.passes, 1, "k={k}: the set must fit one pass");
            let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
            let scales = kernel_scales(&planes);
            let ks = KernelSize::from_k(k).unwrap();
            let slots = assign_slots(kernels.len(), ks, &accel.config.opc).unwrap();
            let (oh, ow) = (report.out_h, report.out_w);
            for (oy, ox) in [(0, 0), (3, 7), (oh - 1, ow - 1)] {
                let window = gather_window(&optical, frame.width(), oy, ox, k);
                let position = oy * ow + ox;
                for (si, &(bank, first_arm)) in slots.iter().enumerate() {
                    let stream = accel
                        .noise
                        .slot_stream(epoch, si as u64)
                        .at(position as u64);
                    // Each `Arm::mac` draws exactly three counters, so
                    // one cursor walked over the arms in order starts
                    // arm `i` at counter `3·i`.
                    let mut cursor = stream.cursor();
                    let bank = accel.opc.bank(bank).unwrap();
                    let values: Vec<f64> = window
                        .chunks(RINGS_PER_ARM)
                        .enumerate()
                        .map(|(i, chunk)| {
                            let arm = bank.arm(first_arm + i).unwrap();
                            arm.mac(chunk, &mut cursor).unwrap().value
                        })
                        .collect();
                    let value = if values.len() == 1 {
                        values[0]
                    } else {
                        accel.vom.accumulate_values(&values).0
                    };
                    assert_eq!(
                        (value * f64::from(scales[si])) as f32,
                        report.output[si][position],
                        "k={k}, kernel {si}, output ({oy}, {ox})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_maps_equal_oracles_that_share_no_write_path() {
        // The serial oracle writes its maps through `eval_row`, as the
        // batch engine does, so a slot or a band written to the wrong
        // place in both would pass every engine-vs-oracle test. Here the
        // batch engine's maps meet code that writes no map alike:
        // noiselessly the reference port, frame by frame; under paper
        // noise a window-by-window re-evaluation of the first and last
        // row of every band, from taps formed here and the window's own
        // `(frame epoch, kernel)` stream, scaled back as the engine
        // does. Two passes of 3×3 kernels, one of 5×5 and an output
        // height of 11 rows, which no band size from 2 to 10 divides,
        // at 1 to 4 scheduler threads.
        let _guard = crate::test_sync::thread_count_lock();
        let kernel_set = |count: usize, k: usize| -> Vec<Vec<f32>> {
            (0..count)
                .map(|i| {
                    (0..k * k)
                        .map(|j| ((i * 11 + j * 3) as f32 * 0.47).sin())
                        .collect()
                })
                .collect()
        };
        let cases = [
            (16, kernel_set(25, 3), 3usize),
            (16, kernel_set(4, 5), 5),
            (13, kernel_set(6, 3), 3),
        ];
        let mut ragged = 0;
        for threads in 1..=4 {
            rayon::set_num_threads(threads);
            for (height, kernels, k) in &cases {
                let frames: Vec<Frame> = (0..3)
                    .map(|f| {
                        let data = (0..16 * height)
                            .map(|i| ((i * (f + 3)) % 19) as f64 / 19.0)
                            .collect();
                        Frame::new(16, *height, data).unwrap()
                    })
                    .collect();
                let noiseless = OisaConfig::builder()
                    .imager_dims(16, *height)
                    .opc_shape(4, 2, 10)
                    .noise(NoiseConfig::noiseless())
                    .awc_model(AwcModel::Ideal)
                    .config;
                let what = |f: usize| format!("{height}-row frame {f}, {k}x{k}, {threads} threads");
                let batch = OisaAccelerator::new(noiseless)
                    .unwrap()
                    .convolve_frames(&frames, kernels, *k)
                    .unwrap();
                for (f, frame) in frames.iter().enumerate() {
                    let reference = OisaAccelerator::new(noiseless)
                        .unwrap()
                        .convolve_frame_reference(frame, kernels, *k)
                        .unwrap();
                    assert_eq!(batch[f].output, reference.output, "{}", what(f));
                }

                let noisy = OisaConfig {
                    noise: NoiseConfig::paper_default(),
                    seed: 19,
                    ..noiseless
                };
                let mut accel = OisaAccelerator::new(noisy).unwrap();
                let epoch = accel.next_noise_epoch();
                let reports = accel.convolve_frames(&frames, kernels, *k).unwrap();
                let (oh, ow) = (reports[0].out_h, reports[0].out_w);
                let band = band_rows(oh, frames.len() * reports[0].plan.passes, threads);
                ragged += usize::from(oh % band != 0);
                let rows: Vec<usize> = (0..oh)
                    .step_by(band)
                    .flat_map(|r0| [r0, (r0 + band).min(oh) - 1])
                    .collect();
                let table = RingTable::new(noisy.opc.arm, &accel.mapper, &noisy.noise).unwrap();
                let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
                let scales = kernel_scales(&planes);
                let taps: Vec<Vec<StagedTaps>> = planes
                    .iter()
                    .zip(&scales)
                    .map(|(kernel, &scale)| {
                        let staged: Vec<u8> = kernel
                            .iter()
                            .map(|&w| table.stage(f64::from(w / scale)).unwrap())
                            .collect();
                        staged
                            .chunks(RINGS_PER_ARM)
                            .map(|arm| table.taps(arm))
                            .collect()
                    })
                    .collect();
                for (f, frame) in frames.iter().enumerate() {
                    let optical = accel.sense(frame).unwrap().optical;
                    for (kernel, arms) in taps.iter().enumerate() {
                        let slot = accel.noise.slot_stream(epoch + f as u64, kernel as u64);
                        for &oy in &rows {
                            for ox in 0..ow {
                                let window = gather_window(&optical, frame.width(), oy, ox, *k);
                                let position = oy * ow + ox;
                                let stream = slot.at(position as u64);
                                let values: Vec<f64> = window
                                    .chunks(RINGS_PER_ARM)
                                    .zip(arms)
                                    .enumerate()
                                    .map(|(i, (chunk, taps))| {
                                        let base = i as u64 * COUNTER_STRIDE;
                                        table.fused_mac(taps, chunk, &stream, base).0
                                    })
                                    .collect();
                                let value = if values.len() == 1 {
                                    values[0]
                                } else {
                                    accel.vom.accumulate_values(&values).0
                                };
                                assert_eq!(
                                    reports[f].output[kernel][position],
                                    (value * f64::from(scales[kernel])) as f32,
                                    "{}, kernel {kernel}, output ({oy}, {ox})",
                                    what(f)
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(ragged > 0, "some case must end in a short band");
    }

    #[test]
    fn multi_pass_when_kernels_exceed_slots() {
        // small_test has 4 banks × 5 arms = 20 slots; 25 kernels → 2
        // passes.
        let mut accel = accel();
        let frame = Frame::constant(16, 16, 0.6).unwrap();
        let kernels: Vec<Vec<f32>> = (0..25).map(|i| vec![(i as f32 / 25.0) - 0.5; 9]).collect();
        let report = accel.convolve_frame(&frame, &kernels, 3).unwrap();
        assert_eq!(report.plan.passes, 2);
        assert_eq!(report.output.len(), 25);
        // Kernel 0 (all −0.5) and kernel 24 (all +0.46) must differ in
        // sign.
        assert!(report.output[0][0] < 0.0);
        assert!(report.output[24][0] > 0.0);
    }

    /// `OisaAccelerator::new` on a struct-literal config with one noise
    /// σ set to `bad`: the builder never sees it, so `new` must refuse.
    fn new_with_bad_sigma(field: &str, set: fn(&mut NoiseConfig, f64)) {
        for bad in [-0.01, f64::NAN] {
            let mut cfg = OisaConfig::small_test();
            set(&mut cfg.noise, bad);
            match OisaAccelerator::new(cfg) {
                Err(CoreError::InvalidParameter(msg)) => {
                    assert!(msg.contains(field), "{field} = {bad}: {msg}");
                }
                other => panic!("{field} = {bad} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn new_rejects_a_bad_vcsel_rin_sigma() {
        new_with_bad_sigma("vcsel_rin", |n, v| n.vcsel_rin = v);
    }

    #[test]
    fn new_rejects_a_bad_mr_drift_sigma() {
        new_with_bad_sigma("mr_drift", |n, v| n.mr_drift = v);
    }

    #[test]
    fn new_rejects_a_bad_detector_sigma() {
        new_with_bad_sigma("detector", |n, v| n.detector = v);
    }
}
