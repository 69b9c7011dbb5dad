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
//!   physics. `convolve_frame` (parallel over output rows) and
//!   [`OisaAccelerator::convolve_frame_sequential`] are bit-identical.
//! * **Zero per-pixel allocation.** Windows are gathered into a stack
//!   scratch array, per-pass results land in one flat row-major buffer,
//!   and the fused [`ArmSnapshot::mac_indexed`] skips
//!   [`MacResult`](oisa_optics::arm::MacResult) construction entirely.
//! * **Precomputed arm constants.** Crosstalk, waveguide loss and
//!   full-scale terms are folded into per-ring gains at weight-load
//!   time, and each tap's rail-moment coefficients under the
//!   configured [`NoiseConfig`] into the pass's arm snapshots, instead
//!   of being re-derived on every MAC.
//! * **Three draws per MAC.** VCSEL RIN and ring drift reach the
//!   detector through one Gaussian per rail, drawn from the rail's
//!   closed-form mean and variance, plus the detector draw (see
//!   `oisa_optics::arm`).
//! * **Ordered reduction.** Row tasks return energy partials that are
//!   reduced in row order, so the energy report is identical no matter
//!   how many worker threads ran.
//!
//! [`OisaAccelerator::convolve_frame_reference`] keeps a faithful port
//! of the pre-optimisation pipeline (per-window allocation, per-MAC
//! validation and crosstalk evaluation, order-dependent noise) as the
//! wall-clock baseline for `perf_json` and the microbenchmarks.
//!
//! # Batched inference
//!
//! [`OisaAccelerator::convolve_frames`] is the sustained-throughput
//! engine: it stages every weight pass **once for the whole batch**,
//! snapshots each pass's arms ([`ArmSnapshot`]), and spreads
//! `(frame, pass, row-band)` work items over the work-stealing
//! scheduler in [`crate::scheduler`]. Each frame is keyed to its own
//! noise epoch, so the batch output — feature maps, energy report and
//! timeline per frame — is bit-identical to calling
//! [`OisaAccelerator::convolve_frame_sequential`] once per frame in
//! order. Because ring tuning cost depends on the fabric's previous
//! operating point, the engine records two tuning/memory energies: the
//! batch's first frame pays the entry-state cost, every later frame
//! pays the steady-state cost a per-frame loop would see.

use oisa_device::awc::{AwcModel, AwcParams};
use oisa_device::noise::{NoiseConfig, NoiseSource, SlotStream};
use oisa_memory::bank::KernelBank;
use oisa_optics::arm::{ArmSnapshot, COUNTER_STRIDE, RINGS_PER_ARM};
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
    /// [`JobShard`](crate::wire::JobShard) and workers refuse shards
    /// whose fingerprint differs from their own deployment config —
    /// two processes disagreeing about the physics would otherwise
    /// merge incompatible shards. The hash is derived from the `Debug`
    /// format, so it discriminates configs **within one build of this
    /// crate**; deployments spanning different builds must ship the
    /// config out-of-band (it intentionally does not travel on the
    /// wire).
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
    /// arrive from outside the process (a wire-v3
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
        validate_kernels(&planes, k)?;
        let ks = KernelSize::from_k(k).map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: self.config.imager.height,
            input_w: self.config.imager.width,
            stride: 1,
        };
        let plan = MappingPlan::compute(&workload, &self.config.opc)?;
        let scales = kernel_scales(&planes);
        let mut normalised: Vec<f64> = Vec::with_capacity(k * k);
        let mut codes: Vec<u16> = Vec::with_capacity(k * k);
        let mut kernel_index = 0usize;
        while kernel_index < planes.len() {
            let pass_kernels =
                &planes[kernel_index..(kernel_index + plan.slots_per_pass).min(planes.len())];
            self.stage_pass(
                pass_kernels,
                kernel_index,
                &scales,
                ks,
                &mut normalised,
                &mut codes,
            )?;
            kernel_index += pass_kernels.len();
        }
        // Staging cycled the kernel bank; the next convolution's memory
        // energy must account only its own accesses.
        self.bank.reset_counters();
        Ok(())
    }

    /// Convolves a captured frame with `kernels` (each `k²` weights,
    /// row-major) at stride 1, running the full optical path with the
    /// parallel, allocation-free pipeline (see the module docs).
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
    /// * [`CoreError::InvalidParameter`] for empty/ill-sized kernels.
    /// * [`CoreError::Unmappable`] for unsupported kernel sizes.
    /// * Substrate errors from the optical fabric.
    pub fn convolve_frame(
        &mut self,
        frame: &Frame,
        kernels: &[Vec<f32>],
        k: usize,
    ) -> Result<ConvolutionReport> {
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        self.convolve_impl(frame, &planes, k, true)
    }

    /// Single-threaded twin of [`OisaAccelerator::convolve_frame`]:
    /// identical physics, identical noise streams, identical energy
    /// reduction order — the parity oracle the parallel path is tested
    /// against.
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
        self.convolve_impl(frame, &planes, k, false)
    }

    fn convolve_impl(
        &mut self,
        frame: &Frame,
        kernels: &[&[f32]],
        k: usize,
        parallel: bool,
    ) -> Result<ConvolutionReport> {
        validate_kernels(kernels, k)?;
        let ks = KernelSize::from_k(k).map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: frame.height(),
            input_w: frame.width(),
            stride: 1,
        };
        let plan = MappingPlan::compute(&workload, &self.config.opc)?;
        let (oh, ow) = workload.output_size();

        // Sense + encode.
        let capture = self.imager.expose(frame)?;
        let encoded = self.vam.encode_capture(&capture)?;
        // Validate the optical frame once up front; every window below
        // reuses the guarantee instead of re-checking k² amplitudes per
        // output pixel.
        validate_optical(&encoded.optical)?;

        let scales = kernel_scales(kernels);

        let mut energy = EnergyReport {
            sensing: capture.energy,
            encoding: encoded.total_energy(),
            ..EnergyReport::default()
        };
        let mut output = vec![vec![0.0f32; oh * ow]; kernels.len()];
        let epoch = self.noise.begin_epoch()?;
        let width = frame.width();
        let k2 = k * k;
        let arms_per_kernel = ks.arms_per_kernel();

        let slots_per_pass = plan.slots_per_pass;
        // Weight staging is off the hot path, but reuse its buffers
        // anyway.
        let mut normalised: Vec<f64> = Vec::with_capacity(k2);
        let mut codes: Vec<u16> = Vec::with_capacity(k2);
        // Double-buffered streamed staging: the pass about to drain is
        // already staged and snapshotted; on the parallel engine the
        // *next* pass quantises/tunes/snapshots on this thread while
        // the workers drain the current pass's rows
        // ([`scheduler::execute_overlapped`]). Rows only ever read
        // immutable snapshots and the encoded frame, so restaging the
        // fabric underneath them is unobservable; tuning energy still
        // accumulates in strict pass order, keeping the report
        // bit-identical to the sequential engine, which stages each
        // pass only after the previous one fully drained.
        let mut staged = Some(stage_full_pass(
            &mut self.bank,
            &mut self.opc,
            &self.mapper,
            &self.config,
            kernels,
            0,
            slots_per_pass,
            &scales,
            ks,
            arms_per_kernel,
            &mut normalised,
            &mut codes,
        )?);
        while let Some(pass) = staged.take() {
            let kernel_index = pass.kernel_index;
            let slot_arms = pass.arms;
            let nslots = slot_arms.len();
            let next_index = kernel_index + nslots;
            energy.tuning += pass.tuning;

            // Hoist the (seed, epoch, slot) key mixing out of the pixel
            // loop: per position only one extra mix remains.
            let slot_streams: Vec<SlotStream> = (0..nslots)
                .map(|si| self.noise.slot_stream(epoch, (kernel_index + si) as u64))
                .collect();
            let row_len = nslots * ow;
            // One flat row-major buffer per pass: [row][slot][ox]. Row
            // tasks own disjoint chunks, so they parallelise without
            // locks; results are scattered into the per-kernel maps
            // afterwards.
            let mut pass_out = vec![0.0f32; oh * row_len];
            let vom = &self.vom;
            let optical = &encoded.optical[..];
            let pass_scales = &scales[kernel_index..kernel_index + nslots];
            let slot_arms_ref = &slot_arms;
            let slot_streams_ref = &slot_streams;
            let row_task = move |oy: usize, row: &mut [f32]| -> RowEnergy {
                eval_row(
                    oy,
                    row,
                    optical,
                    width,
                    ow,
                    k,
                    slot_arms_ref,
                    slot_streams_ref,
                    pass_scales,
                    vom,
                )
            };
            let rows: Vec<&mut [f32]> = pass_out.chunks_mut(row_len).collect();
            let partials: Vec<RowEnergy> = if parallel && next_index < kernels.len() {
                // Streamed staging: drain this pass's rows on the
                // worker pool while this thread stages the next pass.
                let kbank = &mut self.bank;
                let opc = &mut self.opc;
                let mapper = &self.mapper;
                let config = &self.config;
                let scales_ref = &scales;
                let normalised = &mut normalised;
                let codes = &mut codes;
                let (partials, next) = scheduler::execute_overlapped(rows, row_task, move || {
                    stage_full_pass(
                        kbank,
                        opc,
                        mapper,
                        config,
                        kernels,
                        next_index,
                        slots_per_pass,
                        scales_ref,
                        ks,
                        arms_per_kernel,
                        normalised,
                        codes,
                    )
                });
                staged = Some(next?);
                partials
            } else if parallel {
                rayon::iter::parallel_map(rows, row_task)
            } else {
                rows.into_iter()
                    .enumerate()
                    .map(|(oy, row)| row_task(oy, row))
                    .collect()
            };
            // Ordered reduction: identical grouping whether the rows ran
            // on one thread or many.
            for partial in partials {
                energy.compute += Joule::new(partial.compute);
                energy.aggregation += Joule::new(partial.aggregation);
            }
            for si in 0..nslots {
                let dst = &mut output[kernel_index + si];
                for oy in 0..oh {
                    let src = oy * row_len + si * ow;
                    dst[oy * ow..(oy + 1) * ow].copy_from_slice(&pass_out[src..src + ow]);
                }
            }
            if staged.is_none() && next_index < kernels.len() {
                // Sequential oracle: stage the next pass only after
                // this one fully drained.
                staged = Some(stage_full_pass(
                    &mut self.bank,
                    &mut self.opc,
                    &self.mapper,
                    &self.config,
                    kernels,
                    next_index,
                    slots_per_pass,
                    &scales,
                    ks,
                    arms_per_kernel,
                    &mut normalised,
                    &mut codes,
                )?);
            }
        }

        // Kernel-bank access energy.
        energy.memory = self.bank.total_energy();
        self.bank.reset_counters();

        // Timeline from the controller program.
        let program = self
            .controller
            .frame_program(&plan, (oh * ow * kernels.len()) as u64);
        let timeline = self.controller.execute(&program)?;

        Ok(ConvolutionReport {
            output,
            out_h: oh,
            out_w: ow,
            plan,
            timeline,
            energy,
        })
    }

    /// Tuning energy of exactly the arms `slots` staged — the energy a
    /// pass is charged. See [`pass_tuning_energy_of`].
    fn pass_tuning_energy(
        &self,
        slots: &[(usize, usize)],
        arms_per_kernel: usize,
    ) -> Result<Joule> {
        pass_tuning_energy_of(&self.opc, slots, arms_per_kernel)
    }

    /// Stages one pass's kernels onto the fabric. See
    /// [`stage_pass_onto`]; this method form serves the batched engine,
    /// which stages every pass up front.
    fn stage_pass(
        &mut self,
        pass_kernels: &[&[f32]],
        kernel_index: usize,
        scales: &[f32],
        ks: KernelSize,
        normalised: &mut Vec<f64>,
        codes: &mut Vec<u16>,
    ) -> Result<Vec<(usize, usize)>> {
        stage_pass_onto(
            &mut self.bank,
            &mut self.opc,
            &self.mapper,
            &self.config.opc,
            pass_kernels,
            kernel_index,
            scales,
            ks,
            normalised,
            codes,
        )
    }

    /// Convolves a batch of captured frames with `kernels` in one
    /// engine invocation — the sustained-throughput path.
    ///
    /// The engine stages each weight pass once for the whole batch,
    /// snapshots the pass's arms, then spreads `(frame, pass, row-band)`
    /// work items across the work-stealing scheduler
    /// ([`crate::scheduler`]): every worker stays busy until the entire
    /// batch is drained, stealing bands from slower neighbours instead
    /// of idling at a frame boundary.
    ///
    /// **Exactness.** Each frame is keyed to its own noise epoch
    /// (reserved contiguously once the batch has validated), partial
    /// energies reduce in `(frame, pass, row)` order, and frame 0 pays
    /// the fabric's entry-state tuning cost while later frames pay the
    /// steady-state cost — so the returned reports are bit-identical,
    /// field for field, to calling
    /// [`OisaAccelerator::convolve_frame_sequential`] once per frame in
    /// order, and the accelerator is left in the same state that loop
    /// would leave it in.
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
        if frames.is_empty() {
            return Err(CoreError::InvalidParameter("no frames supplied".into()));
        }
        let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
        validate_kernels(&planes, k)?;
        let ks = KernelSize::from_k(k).map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: frames[0].height(),
            input_w: frames[0].width(),
            stride: 1,
        };
        let plan = MappingPlan::compute(&workload, &self.config.opc)?;
        let (oh, ow) = workload.output_size();
        let width = frames[0].width();

        // Phase 1 — sense + encode every frame up front (the imager
        // enforces uniform dimensions). No noise epochs are consumed
        // until the whole batch has validated.
        struct FrameCtx {
            optical: Vec<f64>,
            sensing: Joule,
            encoding: Joule,
        }
        let mut ctxs: Vec<FrameCtx> = Vec::with_capacity(frames.len());
        for frame in frames {
            let capture = self.imager.expose(frame)?;
            let encoded = self.vam.encode_capture(&capture)?;
            validate_optical(&encoded.optical)?;
            let encoding = encoded.total_energy();
            ctxs.push(FrameCtx {
                optical: encoded.optical,
                sensing: capture.energy,
                encoding,
            });
        }
        let first_epoch = self.noise.reserve_epochs(frames.len() as u64)?;

        let scales = kernel_scales(&planes);

        // Phase 2 — stage every pass and snapshot its arms. Ring tuning
        // cost depends on the fabric's previous operating point, so the
        // pass sequence is applied twice: the first application records
        // what the batch's first frame pays from the fabric's entry
        // state, the second what every later frame pays from the steady
        // state a per-frame loop would cycle through. (The ring
        // *operating points* — and therefore the snapshots — are
        // identical either way; only the tuning energy differs.)
        struct PassCtx {
            kernel_index: usize,
            nslots: usize,
            arms: Vec<Vec<ArmSnapshot>>,
            tuning_first: Joule,
            tuning_steady: Joule,
        }
        let arms_per_kernel = ks.arms_per_kernel();
        let slots_per_pass = plan.slots_per_pass;
        let mut normalised: Vec<f64> = Vec::with_capacity(k * k);
        let mut codes: Vec<u16> = Vec::with_capacity(k * k);
        let mut passes: Vec<PassCtx> = Vec::with_capacity(plan.passes);
        let mut kernel_index = 0usize;
        while kernel_index < planes.len() {
            let pass_kernels =
                &planes[kernel_index..(kernel_index + slots_per_pass).min(planes.len())];
            let slots = self.stage_pass(
                pass_kernels,
                kernel_index,
                &scales,
                ks,
                &mut normalised,
                &mut codes,
            )?;
            let arms: Vec<Vec<ArmSnapshot>> = slots
                .iter()
                .map(|&(bank, first_arm)| {
                    self.opc.snapshot_kernel_arms(
                        bank,
                        first_arm,
                        arms_per_kernel,
                        &self.config.noise,
                    )
                })
                .collect::<oisa_optics::Result<_>>()?;
            let tuning_first = self.pass_tuning_energy(&slots, arms_per_kernel)?;
            passes.push(PassCtx {
                kernel_index,
                nslots: slots.len(),
                arms,
                tuning_first,
                tuning_steady: Joule::ZERO,
            });
            kernel_index += pass_kernels.len();
        }
        let memory_first = self.bank.total_energy();
        self.bank.reset_counters();
        let memory_steady;
        if frames.len() > 1 {
            // Steady-state restage: the fabric now holds the last
            // pass's weights, exactly the state a per-frame loop leaves
            // between frames.
            for pass in &mut passes {
                let ki = pass.kernel_index;
                let pass_kernels = &planes[ki..(ki + slots_per_pass).min(planes.len())];
                let slots =
                    self.stage_pass(pass_kernels, ki, &scales, ks, &mut normalised, &mut codes)?;
                pass.tuning_steady = self.pass_tuning_energy(&slots, arms_per_kernel)?;
            }
            memory_steady = self.bank.total_energy();
            self.bank.reset_counters();
        } else {
            memory_steady = memory_first;
            for pass in &mut passes {
                pass.tuning_steady = pass.tuning_first;
            }
        }

        // Phase 3 — fan `(frame, pass, row-band)` items out over the
        // work-stealing scheduler. Bands keep a few items per worker in
        // the deques so stealing has slack without shredding locality;
        // energies come back per row so the reduction below can replay
        // the sequential engine's exact floating-point grouping.
        let n_passes = passes.len();
        let mut pass_out: Vec<Vec<f32>> = Vec::with_capacity(frames.len() * n_passes);
        for _ in 0..frames.len() {
            for pass in &passes {
                pass_out.push(vec![0.0f32; oh * pass.nslots * ow]);
            }
        }
        let band_rows = oh
            .div_ceil(rayon::current_num_threads() * 2)
            .clamp(1, oh.max(1));
        let bands_per_buffer = oh.div_ceil(band_rows);
        struct BandItem<'a> {
            frame: usize,
            pass: usize,
            row0: usize,
            out: &'a mut [f32],
        }
        let mut items: Vec<BandItem<'_>> = Vec::with_capacity(pass_out.len() * bands_per_buffer);
        for (bi, buf) in pass_out.iter_mut().enumerate() {
            let row_len = passes[bi % n_passes].nslots * ow;
            for (band, out) in buf.chunks_mut(band_rows * row_len).enumerate() {
                items.push(BandItem {
                    frame: bi / n_passes,
                    pass: bi % n_passes,
                    row0: band * band_rows,
                    out,
                });
            }
        }
        let noise = &self.noise;
        let vom = &self.vom;
        let passes_ref = &passes;
        let ctxs_ref = &ctxs;
        let scales_ref = &scales;
        let band_energies: Vec<Vec<RowEnergy>> = scheduler::execute(items, |_, item| {
            let pass = &passes_ref[item.pass];
            let ctx = &ctxs_ref[item.frame];
            let row_len = pass.nslots * ow;
            // The reservation above is overflow-checked, so plain
            // addition cannot wrap here.
            let epoch = first_epoch + item.frame as u64;
            let slot_streams: Vec<SlotStream> = (0..pass.nslots)
                .map(|si| noise.slot_stream(epoch, (pass.kernel_index + si) as u64))
                .collect();
            let pass_scales = &scales_ref[pass.kernel_index..pass.kernel_index + pass.nslots];
            item.out
                .chunks_mut(row_len)
                .enumerate()
                .map(|(i, row)| {
                    eval_row(
                        item.row0 + i,
                        row,
                        &ctx.optical,
                        width,
                        ow,
                        k,
                        &pass.arms,
                        &slot_streams,
                        pass_scales,
                        vom,
                    )
                })
                .collect()
        });

        // Phase 4 — per-frame assembly: ordered energy reduction,
        // scatter into per-kernel maps, controller timeline.
        let mut reports = Vec::with_capacity(frames.len());
        let mut band_cursor = 0usize;
        for (f, ctx) in ctxs.iter().enumerate() {
            let mut energy = EnergyReport {
                sensing: ctx.sensing,
                encoding: ctx.encoding,
                ..EnergyReport::default()
            };
            let mut output = vec![vec![0.0f32; oh * ow]; kernels.len()];
            for (p, pass) in passes.iter().enumerate() {
                energy.tuning += if f == 0 {
                    pass.tuning_first
                } else {
                    pass.tuning_steady
                };
                for _ in 0..bands_per_buffer {
                    for row_energy in &band_energies[band_cursor] {
                        energy.compute += Joule::new(row_energy.compute);
                        energy.aggregation += Joule::new(row_energy.aggregation);
                    }
                    band_cursor += 1;
                }
                let row_len = pass.nslots * ow;
                let buf = &pass_out[f * n_passes + p];
                for si in 0..pass.nslots {
                    let dst = &mut output[pass.kernel_index + si];
                    for oy in 0..oh {
                        let src = oy * row_len + si * ow;
                        dst[oy * ow..(oy + 1) * ow].copy_from_slice(&buf[src..src + ow]);
                    }
                }
            }
            energy.memory = if f == 0 { memory_first } else { memory_steady };
            let program = self
                .controller
                .frame_program(&plan, (oh * ow * kernels.len()) as u64);
            let timeline = self.controller.execute(&program)?;
            reports.push(ConvolutionReport {
                output,
                out_h: oh,
                out_w: ow,
                plan,
                timeline,
                energy,
            });
        }
        Ok(reports)
    }

    /// Faithful port of the pre-optimisation sequential pipeline: one
    /// mutable noise stream shared by every MAC (order-dependent draws),
    /// a freshly allocated `Vec` per activation window, per-MAC range
    /// validation, and per-call crosstalk/rail-coefficient/full-scale/
    /// time-of-flight evaluation through
    /// [`Arm::mac_reference`](oisa_optics::arm::Arm::mac_reference).
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
        if kernels.is_empty() {
            return Err(CoreError::InvalidParameter("no kernels supplied".into()));
        }
        if kernels.iter().any(|kn| kn.len() != k * k) {
            return Err(CoreError::InvalidParameter(format!(
                "every kernel must have {} weights",
                k * k
            )));
        }
        let ks = KernelSize::from_k(k).map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let workload = ConvWorkload {
            out_channels: kernels.len(),
            in_channels: 1,
            kernel: k,
            input_h: frame.height(),
            input_w: frame.width(),
            stride: 1,
        };
        let plan = MappingPlan::compute(&workload, &self.config.opc)?;
        let (oh, ow) = workload.output_size();

        let capture = self.imager.expose(frame)?;
        let encoded = self.vam.encode_capture(&capture)?;

        let scales: Vec<f32> = kernels
            .iter()
            .map(|kn| {
                kn.iter()
                    .fold(0.0f32, |m, w| m.max(w.abs()))
                    .max(f32::MIN_POSITIVE)
            })
            .collect();

        let mut energy = EnergyReport {
            sensing: capture.energy,
            encoding: encoded.total_energy(),
            ..EnergyReport::default()
        };
        let mut output = vec![vec![0.0f32; oh * ow]; kernels.len()];

        let slots_per_pass = plan.slots_per_pass;
        let mut kernel_index = 0usize;
        while kernel_index < kernels.len() {
            let pass_kernels =
                &kernels[kernel_index..(kernel_index + slots_per_pass).min(kernels.len())];
            let slots = assign_slots(pass_kernels.len(), ks, &self.config.opc)?;
            for (pk, (kn, &(bank, first_arm))) in pass_kernels.iter().zip(&slots).enumerate() {
                let scale = scales[kernel_index + pk];
                let normalised: Vec<f64> = kn.iter().map(|&w| f64::from(w / scale)).collect();
                let codes: Vec<u16> = normalised
                    .iter()
                    .map(|&w| self.mapper.quantize(w).map(|m| m.code))
                    .collect::<oisa_optics::Result<Vec<u16>>>()?;
                let offset = (bank * oisa_optics::bank::RINGS_PER_BANK + first_arm * RINGS_PER_ARM)
                    % self.bank.len();
                self.bank.store(offset, &codes)?;
                self.opc
                    .load_kernel(bank, first_arm, &normalised, &self.mapper)?;
            }
            energy.tuning += self.pass_tuning_energy(&slots, ks.arms_per_kernel())?;

            for oy in 0..oh {
                for ox in 0..ow {
                    let window = gather_window(&encoded.optical, frame.width(), oy, ox, k);
                    for (slot_idx, &(bank, first_arm)) in slots.iter().enumerate() {
                        let value = self.evaluate_kernel_reference(
                            bank,
                            first_arm,
                            &window,
                            ks,
                            &mut energy,
                        )?;
                        output[kernel_index + slot_idx][oy * ow + ox] =
                            (value * f64::from(scales[kernel_index + slot_idx])) as f32;
                    }
                }
            }
            kernel_index += pass_kernels.len();
        }

        energy.memory = self.bank.total_energy();
        self.bank.reset_counters();

        let program = self
            .controller
            .frame_program(&plan, (oh * ow * kernels.len()) as u64);
        let timeline = self.controller.execute(&program)?;

        Ok(ConvolutionReport {
            output,
            out_h: oh,
            out_w: ow,
            plan,
            timeline,
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
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for empty inputs or mismatched
    ///   channel counts/shapes.
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
        let mut combined: Option<ConvolutionReport> = None;
        // One borrow buffer reused across channels: each iteration
        // refills it with the channel's plane slices instead of
        // allocating a fresh `Vec` per channel.
        let mut planes: Vec<&[f32]> = Vec::with_capacity(kernels.len());
        for (ic, frame) in frames.iter().enumerate() {
            planes.clear();
            planes.extend(kernels.iter().map(|kn| kn[ic].as_slice()));
            let partial = self.convolve_impl(frame, &planes, k, true)?;
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
    /// bit-identical to [`OisaAccelerator::dense_layer_serial`], the
    /// serial oracle.
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
        let input = self.encode_frame(frame)?;
        self.dense_vector(&input, matrix, rows)
    }

    /// Single-threaded twin of [`OisaAccelerator::dense_layer`]: chunks
    /// serialise on shared-fabric arm loading, exactly as the hardware
    /// would — the parity oracle the parallel dense path is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Same contract as [`OisaAccelerator::dense_layer`].
    pub fn dense_layer_serial(
        &mut self,
        frame: &Frame,
        matrix: &[f32],
        rows: usize,
    ) -> Result<crate::mlp::MatVecReport> {
        let input = self.encode_frame(frame)?;
        crate::mlp::matvec(
            &mut self.opc,
            &self.vom,
            &self.mapper,
            matrix,
            rows,
            input.len(),
            &input,
            &mut self.noise,
        )
    }

    /// Executes a dense layer on a raw activation vector already in the
    /// optical domain (`[0, 1]`) — the mid-program dense path of a
    /// [layer program](crate::program): unlike
    /// [`OisaAccelerator::dense_layer`] no frame is sensed or encoded,
    /// the predecessor stage's output drives the arms directly.
    ///
    /// Rows fan out as in [`crate::mlp::matvec_parallel`], staging the
    /// matrix for this call alone; one noise epoch is consumed, exactly
    /// as [`OisaAccelerator::dense_layer`] does.
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
        self.dense_staged(input, matrix, rows, &mut None)
    }

    /// [`OisaAccelerator::dense_vector`] with the matrix's staging kept
    /// by the caller ([`crate::mlp::matvec_staged`]): a layer-program
    /// run stages each dense stage on its first frame and evaluates
    /// every later frame from the same bytes.
    pub(crate) fn dense_staged(
        &mut self,
        input: &[f64],
        matrix: &[f32],
        rows: usize,
        staged: &mut Option<crate::mlp::StagedMatrix>,
    ) -> Result<crate::mlp::MatVecReport> {
        crate::mlp::matvec_staged(
            &mut self.opc,
            &self.vom,
            &self.mapper,
            matrix,
            rows,
            input.len(),
            input,
            &mut self.noise,
            staged,
        )
    }

    /// Senses `frame` and encodes it into the VAM's optical domain — the
    /// input a frame-consuming dense layer drives the arms with.
    pub(crate) fn encode_frame(&mut self, frame: &Frame) -> Result<Vec<f64>> {
        let capture = self.imager.expose(frame)?;
        Ok(self.vam.encode_capture(&capture)?.optical)
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
    /// `rows × cols` (including a shape whose size overflows `usize`);
    /// substrate errors from the optical fabric.
    pub fn prewarm_dense(&mut self, matrix: &[f32], rows: usize, cols: usize) -> Result<()> {
        crate::mlp::check_shape(matrix.len(), rows, cols)?;
        let scale = crate::mlp::matrix_scale(matrix);
        crate::mlp::replay_exit_state(&mut self.opc, &self.mapper, matrix, scale, rows, cols)
    }
}

/// Maximum supported window size (7×7).
const MAX_WINDOW: usize = 49;
/// Maximum arms one kernel spans (7×7 → 5 arms).
const MAX_ARMS: usize = 5;

/// Per-row energy partial reduced in row order after a pass.
#[derive(Debug, Default, Clone, Copy)]
struct RowEnergy {
    compute: f64,
    aggregation: f64,
}

/// Rejects empty kernel sets and kernels that are not `k × k`.
fn validate_kernels(kernels: &[&[f32]], k: usize) -> Result<()> {
    if kernels.is_empty() {
        return Err(CoreError::InvalidParameter("no kernels supplied".into()));
    }
    if kernels.iter().any(|kn| kn.len() != k * k) {
        return Err(CoreError::InvalidParameter(format!(
            "every kernel must have {} weights",
            k * k
        )));
    }
    Ok(())
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

/// One fully-staged weight pass, ready to drain: the immutable arm
/// snapshots the row tasks read and the tuning energy the pass is
/// charged. Produced by [`stage_full_pass`]; the single-frame engine
/// double-buffers one of these so pass `N + 1` can stage while pass
/// `N`'s rows drain.
struct StagedPass {
    /// Index of the first kernel this pass serves.
    kernel_index: usize,
    /// Captured arm state per slot, taken right after ring tuning.
    arms: Vec<Vec<ArmSnapshot>>,
    /// Tuning energy of exactly the arms this pass staged.
    tuning: Joule,
}

/// Stages one pass's kernels onto the fabric: quantises each kernel
/// through the mapper, stores the codes in the kernel bank and tunes
/// the rings. Returns the slot assignment.
///
/// A free function over the accelerator's split fields (bank, fabric,
/// mapper) rather than a method so the streamed-staging path can run
/// it concurrently with row evaluation: rows read only previously
/// captured [`ArmSnapshot`]s and the encoded frame, which this
/// function never touches. Shared by the single-frame and batched
/// engines so both stage identically.
#[allow(clippy::too_many_arguments)]
fn stage_pass_onto(
    kbank: &mut KernelBank,
    opc: &mut Opc,
    mapper: &WeightMapper,
    opc_config: &OpcConfig,
    pass_kernels: &[&[f32]],
    kernel_index: usize,
    scales: &[f32],
    ks: KernelSize,
    normalised: &mut Vec<f64>,
    codes: &mut Vec<u16>,
) -> Result<Vec<(usize, usize)>> {
    let slots = assign_slots(pass_kernels.len(), ks, opc_config)?;
    for (pk, (kn, &(bank, first_arm))) in pass_kernels.iter().zip(&slots).enumerate() {
        let scale = scales[kernel_index + pk];
        normalised.clear();
        normalised.extend(kn.iter().map(|&w| f64::from(w / scale)));
        codes.clear();
        for &w in normalised.iter() {
            codes.push(mapper.quantize(w)?.code);
        }
        let offset =
            (bank * oisa_optics::bank::RINGS_PER_BANK + first_arm * RINGS_PER_ARM) % kbank.len();
        kbank.store(offset, codes)?;
        opc.load_kernel(bank, first_arm, normalised, mapper)?;
    }
    Ok(slots)
}

/// Tuning energy of exactly the arms `slots` staged — the energy a
/// pass is charged.
///
/// Summing [`Opc::tuning_energy`] here instead would re-charge the
/// *last* load of every arm on the fabric, double-counting earlier
/// passes (and earlier workloads) on every pass; per-slot accounting
/// is also what lets a stateless shard worker reproduce mid-stream
/// tuning energies without the fabric's full load history (see
/// [`crate::backend`]).
fn pass_tuning_energy_of(
    opc: &Opc,
    slots: &[(usize, usize)],
    arms_per_kernel: usize,
) -> Result<Joule> {
    let mut total = Joule::ZERO;
    for &(bank, first_arm) in slots {
        let bank = opc.bank(bank)?;
        for arm in first_arm..first_arm + arms_per_kernel {
            total += bank.arm(arm)?.tuning_energy();
        }
    }
    Ok(total)
}

/// Stages the pass starting at `kernel_index` end to end — quantise,
/// store, tune, snapshot, charge tuning — and returns everything the
/// drain needs as a [`StagedPass`].
///
/// Because ring tuning cost depends on the fabric's previous operating
/// point, passes must stage in order; the streamed engine preserves
/// that by always staging pass `N + 1` on one thread while only
/// *reading* snapshots of pass `N`, so the tuning energies (and the
/// whole report) stay bit-identical to the strictly serial engine.
#[allow(clippy::too_many_arguments)]
fn stage_full_pass(
    kbank: &mut KernelBank,
    opc: &mut Opc,
    mapper: &WeightMapper,
    config: &OisaConfig,
    kernels: &[&[f32]],
    kernel_index: usize,
    slots_per_pass: usize,
    scales: &[f32],
    ks: KernelSize,
    arms_per_kernel: usize,
    normalised: &mut Vec<f64>,
    codes: &mut Vec<u16>,
) -> Result<StagedPass> {
    let pass_kernels = &kernels[kernel_index..(kernel_index + slots_per_pass).min(kernels.len())];
    let slots = stage_pass_onto(
        kbank,
        opc,
        mapper,
        &config.opc,
        pass_kernels,
        kernel_index,
        scales,
        ks,
        normalised,
        codes,
    )?;
    let tuning = pass_tuning_energy_of(opc, &slots, arms_per_kernel)?;
    // Snapshot every slot's arms once per pass, rail coefficients
    // included; the hot loop then walks immutable captured state
    // instead of doing checked bank/arm lookups per pixel.
    let arms: Vec<Vec<ArmSnapshot>> = slots
        .iter()
        .map(|&(bank, first_arm)| {
            opc.snapshot_kernel_arms(bank, first_arm, arms_per_kernel, &config.noise)
        })
        .collect::<oisa_optics::Result<_>>()?;
    Ok(StagedPass {
        kernel_index,
        arms,
        tuning,
    })
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

/// Evaluates one output row of one pass against immutable arm
/// snapshots — the shared hot loop of the single-frame engines and the
/// batched `(frame, pass, row-band)` work items. Windows gather into a
/// stack scratch array, noise comes from the counter-addressed slot
/// streams, and multi-arm kernels aggregate through the VOM.
///
/// Every window goes through the per-window [`ArmSnapshot::mac_indexed`]
/// fold, which reads the rail coefficients the pass staged into its
/// snapshots and draws three Gaussians per arm: one per detector rail
/// and one for the detector. A multi-arm kernel's arms share the
/// window's stream, arm `i` starting at counter `i · COUNTER_STRIDE`.
#[allow(clippy::too_many_arguments)]
fn eval_row(
    oy: usize,
    row: &mut [f32],
    optical: &[f64],
    width: usize,
    ow: usize,
    k: usize,
    slot_arms: &[Vec<ArmSnapshot>],
    slot_streams: &[SlotStream],
    pass_scales: &[f32],
    vom: &Vom,
) -> RowEnergy {
    let k2 = k * k;
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
                let (value, e) = arms[0].mac_indexed(window, &stream, 0);
                partial.compute += e;
                value
            } else {
                let mut values = [0.0f64; MAX_ARMS];
                let mut base = 0u64;
                for (ai, chunk) in window.chunks(RINGS_PER_ARM).enumerate() {
                    let (value, e) = arms[ai].mac_indexed(chunk, &stream, base);
                    values[ai] = value;
                    partial.compute += e;
                    base += COUNTER_STRIDE;
                }
                let (value, agg) = vom.accumulate_values(&values[..arms.len()]);
                partial.aggregation += agg;
                value
            };
            row[si * ow + ox] = (value * f64::from(pass_scales[si])) as f32;
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
    fn streamed_staging_charges_tuning_exactly_once_per_pass() {
        // 25 kernels on the 20-slot test fabric = 2 passes, so the
        // parallel engine stages pass 2 *while* pass 1 drains. The PR 4
        // double-count class of bug — charging fabric-lifetime tuning
        // energy instead of per-slot pass energy — would grow the
        // charge on every repeated frame; the steady-state cycle must
        // instead be exactly repeatable, and identical to the strictly
        // serial engine's.
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
        assert_eq!(tp, ts, "streamed staging must charge what serial charges");
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
        let rs = serial.dense_layer_serial(&frame, &matrix, rows).unwrap();
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
