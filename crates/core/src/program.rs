//! Layer programs: whole (small) edge models through the optical
//! pipeline, not just the paper's first-layer story.
//!
//! A [`LayerProgram`] is an ordered list of [`Stage`]s every frame
//! passes through:
//!
//! * [`Stage::Conv`] — the existing optical convolution path
//!   ([`OisaAccelerator::convolve_frames`]); stage 0 only, because the
//!   sensor-attached Optical Processing Core convolves *captured
//!   frames*, and every later stage's tensor is a flat vector.
//! * [`Stage::Quantize`] — a sensor-domain re-encode between optical
//!   stages, reusing `oisa_nn`'s quantiser blocks:
//!   [`QuantizeKind::Ternary`] (the paper's three-level VCSEL
//!   re-modulation, [`oisa_nn::quantize::TernaryActivation`]) or
//!   [`QuantizeKind::Levels`] (a signed nearest-level quantiser,
//!   [`oisa_nn::quantize::LevelQuantizer`]).
//! * [`Stage::Dense`] — a fully connected layer on the fabric through
//!   the staged engine behind [`crate::mlp::matvec_parallel`]: at
//!   stage 0 the frame is sensed and ternary-encoded first (as
//!   [`OisaAccelerator::dense_layer`] does); mid-program the
//!   predecessor's `[0, 1]` activations drive the arms directly (as
//!   [`OisaAccelerator::dense_vector`] does).
//! * [`Stage::Activation`] — an elementwise non-linearity
//!   (currently [`ActivationKind::Relu`], matching
//!   [`oisa_nn::layer::Relu`] bit-for-bit).
//!
//! # Input-domain discipline
//!
//! The optical fabric only accepts activations in `[0, 1]`
//! ([`crate::mlp`]'s validation), so a mid-program [`Stage::Dense`]
//! needs a predecessor whose output range is provably `[0, 1]`.
//! [`LayerProgram::validate`] runs a small range inference to enforce
//! this *before* anything executes (or travels): a ternary quantise
//! always lands in `[0, 1]`; a signed level quantise lands in
//! `[-1, 1]`, which a ReLU folds back into `[0, 1]`; a raw conv/dense
//! output is unbounded and is rejected as dense input.
//!
//! # Determinism
//!
//! A program consumes one noise epoch per optical stage (conv or
//! dense) per frame — [`LayerProgram::epochs_per_frame`] — so frame
//! `i` of a stream draws from epochs `base + i·E .. base + (i+1)·E`
//! regardless of who executes it. Fabric entry state is handled by
//! [`OisaAccelerator::prewarm_program`]: staging every optical stage's
//! exit state (kernel prewarm + dense exit-state replay, in stage
//! order) reproduces the steady state a sequential per-frame loop
//! reaches after any complete frame, so a shard worker entering the
//! stream at *any* frame boundary pays bit-identical tuning cost.
//! That makes per-frame reports history-independent, which is what
//! lets [`crate::backend::FleetSupervisor`] shard the frame axis and
//! merge [`ProgramFrameReport`]s bit-identically (inter-stage tensors
//! never cross a frame boundary).
//!
//! # The stage-major loop
//!
//! A stream of frames runs through
//! [`OisaAccelerator::run_program_frames`]: one check, one prewarm,
//! then each stage once over all the frames, as OISA keeps a layer's
//! weights in its rings and kernel bank while frames stream through.
//! The conv stage is one call of the
//! batch conv engine; each dense stage is one call of the staged dense
//! engine ([`crate::mlp`]), which stages the matrix, forms each chunk's
//! taps once and folds them against every frame's activations; the
//! elementwise stages run frame by frame. Frame `f`'s `j`-th optical
//! stage draws under epoch `base + f·E + j`, the key a per-frame loop
//! gives it, so the order of the work moves no bit.
//!
//! Ring tuning is the one cost that depends on what ran before:
//! frame 0 pays it from the fabric's entry state, and every later frame
//! from the state the previous frame's last optical stage left. So the
//! conv stage stages its passes, replays the exit state of every later
//! dense stage, and only then restages the passes for the later frames;
//! each dense stage replays its own exit state once, after its frames.
//! The reports, the epochs consumed and the fabric left behind are
//! bit-identical to prewarming and calling
//! [`OisaAccelerator::run_program_frame`] — a one-frame call of the same
//! loop — per frame.
//!
//! # Check, then run
//!
//! One check, which needs only the config, decides whether a job may
//! run (a conv job as the one-stage program `[Stage::Conv]`). The
//! coordinator makes it before anything is sent, and every conv and
//! program entry point of [`OisaAccelerator`] once, adding only the
//! frames' sensing and room on the counter. So a refused job gets one
//! typed error on every backend and leaves counter and fabric as they were.
//!
//! # Examples
//!
//! ```
//! use oisa_core::program::LayerProgram;
//! use oisa_core::{OisaAccelerator, OisaConfig};
//! use oisa_sensor::Frame;
//!
//! # fn main() -> Result<(), oisa_core::CoreError> {
//! let config = OisaConfig::small_test();
//! // 16×16 frames → 4 feature maps → ternary → 8-wide latent → ReLU.
//! let program = LayerProgram::autoencoder(16, 16, 4, 8, 7)?;
//! let mut accel = OisaAccelerator::new(config)?;
//! accel.prewarm_program(&program)?;
//! let report = accel.run_program_frame(&program, &Frame::constant(16, 16, 0.6)?)?;
//! assert_eq!(report.output.len(), 8); // the latent vector
//! assert!(report.output.iter().all(|&v| v >= 0.0)); // ReLU'd
//! # Ok(())
//! # }
//! ```

use oisa_nn::quantize::{LevelQuantizer, TernaryActivation};
use oisa_nn::tensor::Tensor;
use oisa_sensor::frame::Frame;
use oisa_sensor::imager::ImagerConfig;
use serde::{Deserialize, Serialize};

use crate::accelerator::{
    kernel_set_error, plan_conv, ConvPlan, ConvolutionReport, FrameEpochs, OisaAccelerator,
    OisaConfig, Sensed,
};
use crate::mlp::{matrix_scale, MatVecReport};
use crate::wire::FabricEntry;
use crate::{CoreError, Result};

/// The quantiser a [`Stage::Quantize`] applies, elementwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizeKind {
    /// The paper's three-level VCSEL re-modulation
    /// ([`TernaryActivation::paper_default`]): thresholds 0.32/0.64,
    /// amplitudes 0.022/0.511/1.0. Output is always in `[0, 1]`, which
    /// is what licenses a following [`Stage::Dense`].
    Ternary,
    /// Signed nearest-level quantisation over `2^bits` uniform levels
    /// ([`LevelQuantizer::uniform`]); sign is preserved, so output is
    /// in `[-1, 1]` (values beyond ±1 clamp).
    Levels {
        /// Converter resolution, `1..=8` bits.
        bits: u8,
    },
}

/// The non-linearity a [`Stage::Activation`] applies, elementwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `max(x, 0)` — bit-identical to [`oisa_nn::layer::Relu`].
    Relu,
}

/// One stage of a [`LayerProgram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// Optical convolution of the captured frame (stage 0 only).
    Conv {
        /// Kernel side (3, 5 or 7).
        k: usize,
        /// One `k²`-weight plane per output channel.
        kernels: Vec<Vec<f32>>,
    },
    /// Elementwise quantisation (no optical work, no noise epoch).
    Quantize(QuantizeKind),
    /// Dense (fully connected) layer on the fabric. At stage 0 the
    /// frame is sensed and ternary-encoded first; mid-program the
    /// predecessor's `[0, 1]` output drives the arms directly.
    Dense {
        /// Output width (one weight row per output value).
        rows: usize,
        /// Row-major `rows × cols` weights; `cols` is the predecessor
        /// stage's output length (the frame's pixel count at stage 0).
        matrix: Vec<f32>,
    },
    /// Elementwise activation (no optical work, no noise epoch).
    Activation(ActivationKind),
}

/// What is statically known about a stage's output values — the range
/// inference behind [`LayerProgram::validate`]'s dense-input rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueRange {
    /// Unbounded (raw conv/dense output).
    Unknown,
    /// Provably in `[0, 1]` — valid dense input.
    Unit,
    /// Provably in `[-1, 1]` (signed level quantise).
    Signed,
    /// Provably non-negative but unbounded above.
    NonNeg,
}

/// An ordered, validated list of [`Stage`]s — the unit of work a
/// [`crate::wire::ProgramJob`] carries and a
/// [`ComputeBackend`](crate::backend::ComputeBackend) executes on
/// every frame. See the module docs for the execution and determinism
/// model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProgram {
    /// The stages, executed in order on every frame.
    pub stages: Vec<Stage>,
}

impl LayerProgram {
    /// A program from explicit stages, validated.
    ///
    /// # Errors
    ///
    /// As [`LayerProgram::validate`].
    pub fn new(stages: Vec<Stage>) -> Result<Self> {
        let program = Self { stages };
        program.validate()?;
        Ok(program)
    }

    /// The OASIS-style in-sensor autoencoder *encoder*: a 3×3 optical
    /// convolution into `features` maps, the ternary sensor re-encode,
    /// a dense projection to a `latent`-wide code and a ReLU — the
    /// four-stage `conv → quantize → dense → activation` chain. The
    /// decoder is a plain float layer the *coordinator* runs on the
    /// shipped latent (see `examples/autoencoder.rs`); only the encoder
    /// executes on the optical fabric.
    ///
    /// Weights are deterministic He-normal draws from `seed`. The draws
    /// call the platform's libm `ln` and `cos`, which Rust does not
    /// promise are correctly rounded, so two hosts that agree on the
    /// arguments build bit-identical programs only where their libm
    /// agrees: the programs the tests pin are those of a glibc host. The
    /// ROADMAP item on host-independent numerics ("Bits that do not
    /// depend on the host") tracks this.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero `features`/`latent` or
    /// a frame smaller than the 3×3 kernel.
    pub fn autoencoder(
        width: usize,
        height: usize,
        features: usize,
        latent: usize,
        seed: u64,
    ) -> Result<Self> {
        if features == 0 || latent == 0 {
            return Err(CoreError::InvalidParameter(
                "autoencoder needs at least one feature map and one latent value".into(),
            ));
        }
        if width < 3 || height < 3 {
            return Err(CoreError::InvalidParameter(format!(
                "a 3x3 kernel does not fit a {width}x{height} frame"
            )));
        }
        let kernel_weights = Tensor::he_normal(vec![features, 9], 9, seed);
        let kernels: Vec<Vec<f32>> = kernel_weights
            .as_slice()
            .chunks(9)
            .map(<[f32]>::to_vec)
            .collect();
        let conv_out = features * (height - 2) * (width - 2);
        let matrix = Tensor::he_normal(vec![latent, conv_out], conv_out, seed.wrapping_add(1));
        Self::new(vec![
            Stage::Conv { k: 3, kernels },
            Stage::Quantize(QuantizeKind::Ternary),
            Stage::Dense {
                rows: latent,
                matrix: matrix.as_slice().to_vec(),
            },
            Stage::Activation(ActivationKind::Relu),
        ])
    }

    /// Structural validation: non-empty, stage 0 consumes the frame,
    /// conv only at stage 0, quantiser parameters in range, and the
    /// input-domain rule (module docs) — every mid-program dense stage
    /// must follow a provably-`[0, 1]` predecessor.
    ///
    /// Shape-vs-frame checks (kernel fit, dense matrix sizes) need the
    /// imager dimensions and live in [`LayerProgram::output_lens`];
    /// the wire decoder re-runs *this* check so a malformed program is
    /// a typed [`crate::wire::WireError::Malformed`] before execution.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the offending stage.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(CoreError::InvalidParameter(
                "a layer program needs at least one stage".into(),
            ));
        }
        let mut range = ValueRange::Unknown;
        for (i, stage) in self.stages.iter().enumerate() {
            match stage {
                Stage::Conv { k, kernels } => {
                    if i != 0 {
                        return Err(CoreError::InvalidParameter(format!(
                            "stage {i}: convolution is only supported at stage 0 \
                             (the sensor-attached layer)"
                        )));
                    }
                    if let Some(reason) = kernel_set_error(kernels, *k) {
                        return Err(CoreError::InvalidParameter(format!("stage 0: {reason}")));
                    }
                    range = ValueRange::Unknown;
                }
                Stage::Dense { rows, matrix } => {
                    if *rows == 0 || matrix.is_empty() {
                        return Err(CoreError::InvalidParameter(format!(
                            "stage {i}: dense layer needs at least one row and one weight"
                        )));
                    }
                    if i > 0 && range != ValueRange::Unit {
                        return Err(CoreError::InvalidParameter(format!(
                            "stage {i}: a mid-program dense stage needs input provably in \
                             [0, 1]; precede it with a ternary quantize (or a ReLU over a \
                             signed level quantize)"
                        )));
                    }
                    range = ValueRange::Unknown;
                }
                Stage::Quantize(kind) => {
                    if i == 0 {
                        return Err(CoreError::InvalidParameter(
                            "stage 0 must consume the frame (Conv or Dense), got a Quantize".into(),
                        ));
                    }
                    range = match kind {
                        QuantizeKind::Ternary => ValueRange::Unit,
                        QuantizeKind::Levels { bits } => {
                            if !(1..=8).contains(bits) {
                                return Err(CoreError::InvalidParameter(format!(
                                    "stage {i}: quantiser bits {bits} outside 1..=8"
                                )));
                            }
                            ValueRange::Signed
                        }
                    };
                }
                Stage::Activation(ActivationKind::Relu) => {
                    if i == 0 {
                        return Err(CoreError::InvalidParameter(
                            "stage 0 must consume the frame (Conv or Dense), got an Activation"
                                .into(),
                        ));
                    }
                    range = match range {
                        // ReLU folds [-1, 1] into [0, 1] and keeps
                        // [0, 1] where it is.
                        ValueRange::Unit | ValueRange::Signed => ValueRange::Unit,
                        ValueRange::NonNeg | ValueRange::Unknown => ValueRange::NonNeg,
                    };
                }
            }
        }
        Ok(())
    }

    /// Per-stage output lengths for `width × height` input frames,
    /// checking every shape along the way (kernel fit, dense matrix
    /// sizes against the inferred column counts). The final entry is
    /// the program's output width.
    ///
    /// # Errors
    ///
    /// As [`LayerProgram::validate`], plus
    /// [`CoreError::InvalidParameter`] for any stage whose shape does
    /// not meet its input.
    pub fn output_lens(&self, width: usize, height: usize) -> Result<Vec<usize>> {
        self.validate()?;
        let mut lens = Vec::with_capacity(self.stages.len());
        let mut len = 0usize;
        for (i, stage) in self.stages.iter().enumerate() {
            len = match stage {
                Stage::Conv { k, kernels } => {
                    if height < *k || width < *k {
                        return Err(CoreError::InvalidParameter(format!(
                            "stage 0: a {k}x{k} kernel does not fit a {width}x{height} frame"
                        )));
                    }
                    kernels.len() * (height - k + 1) * (width - k + 1)
                }
                Stage::Dense { rows, matrix } => {
                    let cols = if i == 0 { width * height } else { len };
                    if rows.checked_mul(cols) != Some(matrix.len()) {
                        return Err(CoreError::InvalidParameter(format!(
                            "stage {i}: dense matrix has {} weights for a {rows}x{cols} layer",
                            matrix.len()
                        )));
                    }
                    *rows
                }
                Stage::Quantize(_) | Stage::Activation(_) => len,
            };
            lens.push(len);
        }
        Ok(lens)
    }

    /// Noise epochs one frame consumes: one per optical stage (conv or
    /// dense). Elementwise stages draw no noise. This is the stride the
    /// sharding epoch arithmetic uses: frame `i` starts at epoch
    /// `base + i · epochs_per_frame()`.
    #[must_use]
    pub fn epochs_per_frame(&self) -> u64 {
        self.stages.iter().filter(|s| s.is_optical()).count() as u64
    }
}

impl Stage {
    /// Whether the stage runs on the fabric (conv or dense), drawing
    /// one noise epoch per frame.
    fn is_optical(&self) -> bool {
        matches!(self, Stage::Conv { .. } | Stage::Dense { .. })
    }
}

/// Per-stage trace of one frame's program execution. Elementwise
/// stages are free (no optical work), so they carry no report body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageReport {
    /// The optical convolution's full report (feature maps, energy,
    /// timeline).
    Conv(ConvolutionReport),
    /// An elementwise quantise ran (coordinator/peripheral domain —
    /// no fabric energy).
    Quantize,
    /// The dense stage's report (output vector, chunk count, energy,
    /// latency).
    Dense(MatVecReport),
    /// An elementwise activation ran (no fabric energy).
    Activation,
}

/// One frame's complete pass through a [`LayerProgram`]: the per-stage
/// trace plus the final output vector. The unit a
/// [`crate::wire::ProgramReport`] ships back and the sharded merge
/// reassembles in frame order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramFrameReport {
    /// One entry per program stage, in stage order.
    pub stages: Vec<StageReport>,
    /// The final stage's output values.
    pub output: Vec<f32>,
}

/// What [`check_job`] works out and the run uses, so one scan of a
/// matrix serves its check, its exit-state replays and its drain.
pub(crate) struct JobPlan {
    /// The conv stage's plan, when stage 0 is a convolution.
    conv: Option<ConvPlan>,
    /// Stage `i`'s input length: the frame's pixel count at stage 0,
    /// the previous stage's output length after it.
    inputs: Vec<usize>,
    /// Stage `i`'s per-tensor matrix scale if it is dense, else 1.
    scales: Vec<f32>,
    /// The program's output length, its last stage's.
    pub(crate) output_len: usize,
}

/// The one check of whether `program` may run over `frames` (module
/// docs), returning the plan its run uses: at least one frame, each the
/// imager's size ([`check_frame`]), then the program ([`JobPlan::new`]).
pub(crate) fn check_job(
    config: &OisaConfig,
    program: &LayerProgram,
    frames: &[Frame],
) -> Result<JobPlan> {
    if frames.is_empty() {
        return Err(CoreError::InvalidParameter("no frames supplied".into()));
    }
    for frame in frames {
        check_frame(&config.imager, frame)?;
    }
    JobPlan::new(config, program)
}

/// Refuses a frame that is not the imager's size, in the one wording
/// [`check_job`] and a serving engine's submit share.
pub(crate) fn check_frame(imager: &ImagerConfig, frame: &Frame) -> Result<()> {
    let (width, height) = (frame.width(), frame.height());
    if (width, height) == (imager.width, imager.height) {
        return Ok(());
    }
    Err(CoreError::InvalidParameter(format!(
        "frame is {width}x{height} but the imager is {}x{}",
        imager.width, imager.height
    )))
}

/// The one-stage program `[Stage::Conv]` a conv job of `kernels` runs
/// as, on one host or a fleet.
pub(crate) fn conv_job<K: AsRef<[f32]>>(k: usize, kernels: &[K]) -> LayerProgram {
    let kernels = kernels.iter().map(|kn| kn.as_ref().to_vec()).collect();
    LayerProgram {
        stages: vec![Stage::Conv { k, kernels }],
    }
}

impl JobPlan {
    /// [`check_job`]'s program half, which a prewarm makes alone: the
    /// conv stage's [`plan_conv`], every shape
    /// ([`LayerProgram::output_lens`]) and, in the scan that finds each
    /// dense matrix's scale, that every dense weight is finite.
    fn new(config: &OisaConfig, program: &LayerProgram) -> Result<Self> {
        let imager = config.imager;
        let conv = match program.stages.first() {
            Some(Stage::Conv { k, kernels }) => Some(plan_conv(config, kernels, *k)?),
            _ => None,
        };
        let lens = program.output_lens(imager.width, imager.height)?;
        let scales = program
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| match stage {
                Stage::Dense { matrix, .. } => matrix_scale(matrix)
                    .map_err(|reason| CoreError::InvalidParameter(format!("stage {i}: {reason}"))),
                _ => Ok(1.0),
            })
            .collect::<Result<_>>()?;
        let output_len = lens.last().copied().unwrap_or(0);
        let inputs = std::iter::once(imager.width * imager.height)
            .chain(lens)
            .take(program.stages.len())
            .collect();
        Ok(Self {
            conv,
            inputs,
            scales,
            output_len,
        })
    }

    /// The conv stage's plan, which a program that opens with one has.
    pub(crate) fn conv(&self) -> Result<ConvPlan> {
        self.conv
            .ok_or_else(|| CoreError::InvalidParameter("the job has no conv stage".into()))
    }
}

impl OisaAccelerator {
    /// Stages the fabric into the steady state a sequential per-frame
    /// loop over `program` reaches after any complete frame — kernel
    /// prewarm for the conv stage ([`OisaAccelerator::prewarm`]) plus
    /// a dense exit-state replay per dense stage
    /// ([`OisaAccelerator::prewarm_dense`]), in stage order — without
    /// computing anything or consuming noise epochs.
    ///
    /// Run this once before a program's first frame (both the local
    /// backend and shard workers do): because ring state after a load
    /// depends only on that load's weights, every frame thereafter
    /// enters the fabric in this exact state, which makes per-frame
    /// reports history-independent and shard merges bit-identical.
    ///
    /// # Errors
    ///
    /// The job check's refusals of the program (module docs) before the
    /// fabric moves; substrate errors from staging.
    pub fn prewarm_program(&mut self, program: &LayerProgram) -> Result<()> {
        let plan = JobPlan::new(self.config(), program)?;
        self.stage_entry(program, &plan, &FabricEntry::WarmSelf)
    }

    /// Executes `program` on one captured frame, stage by stage,
    /// returning the per-stage trace and the final output vector: a
    /// one-frame call of the program loop behind
    /// [`OisaAccelerator::run_program_frames`].
    ///
    /// Optical stages each consume one noise epoch
    /// ([`LayerProgram::epochs_per_frame`] in total); elementwise
    /// stages run in the electrical domain and are free. Call
    /// [`OisaAccelerator::prewarm_program`] once before the first
    /// frame of a stream for history-independent reports (module
    /// docs), or run the stream through
    /// [`OisaAccelerator::run_program_frames`].
    ///
    /// # Errors
    ///
    /// The job check's refusals (module docs), plus sensing failures and
    /// a counter without room for the frame's epochs, all before the
    /// counter or the fabric moves.
    pub fn run_program_frame(
        &mut self,
        program: &LayerProgram,
        frame: &Frame,
    ) -> Result<ProgramFrameReport> {
        self.run_program_from(program, std::slice::from_ref(frame), &FabricEntry::Cold)?
            .pop()
            .ok_or_else(|| CoreError::InvalidParameter("no frame ran".into()))
    }

    /// Runs `program` over `frames` as one stream:
    /// [`OisaAccelerator::prewarm_program`] once, then the stage-major
    /// program loop, which runs each stage once over all the frames
    /// (module docs).
    ///
    /// The reports, the noise epochs consumed and the fabric left
    /// behind are bit-identical to `prewarm_program` followed by a
    /// `run_program_frame` per frame. This is the loop
    /// [`run_reference`], the local backend and every shard worker run.
    ///
    /// # Errors
    ///
    /// As [`OisaAccelerator::run_program_frame`], for the first frame
    /// that fails, and for a run of no frames; a refused run stages
    /// nothing and consumes no epoch.
    pub fn run_program_frames(
        &mut self,
        program: &LayerProgram,
        frames: &[Frame],
    ) -> Result<Vec<ProgramFrameReport>> {
        self.run_program_from(program, frames, &FabricEntry::WarmSelf)
    }

    /// The one program run: [`check_job`] and
    /// [`OisaAccelerator::sense_run`], before the counter or the fabric
    /// moves, so a run that passes has nothing left to fail on its input,
    /// then `entry` staged ([`OisaAccelerator::stage_entry`]) and the loop.
    pub(crate) fn run_program_from(
        &mut self,
        program: &LayerProgram,
        frames: &[Frame],
        entry: &FabricEntry,
    ) -> Result<Vec<ProgramFrameReport>> {
        let plan = check_job(self.config(), program, frames)?;
        let sensed = self.sense_run(frames, program.epochs_per_frame())?;
        self.stage_entry(program, &plan, entry)?;
        self.run_stages(program, &plan, &sensed)
    }

    /// Stages `entry`: nothing for [`FabricEntry::Cold`], the program's
    /// steady state (its planned kernels, then each dense stage's exit
    /// state) for [`FabricEntry::WarmSelf`], its own kernels through
    /// [`OisaAccelerator::prewarm`] for [`FabricEntry::Warm`].
    fn stage_entry(
        &mut self,
        program: &LayerProgram,
        plan: &JobPlan,
        entry: &FabricEntry,
    ) -> Result<()> {
        match entry {
            FabricEntry::Cold => Ok(()),
            FabricEntry::WarmSelf => {
                if let (Some(Stage::Conv { kernels, .. }), Some(conv)) =
                    (program.stages.first(), &plan.conv)
                {
                    self.stage_kernels(kernels, conv)?;
                }
                self.replay_dense_stages(program, plan, 0)
            }
            FabricEntry::Warm { k, kernels } => self.prewarm(kernels, *k),
        }
    }

    /// Runs the stages of `program` in order, each once over all of
    /// `sensed`'s frames. Frame `f`'s `j`-th optical stage draws under
    /// epoch `base + f·E + j`, where `base` is the counter on entry and
    /// `E` is [`LayerProgram::epochs_per_frame`] — the keys a per-frame
    /// loop uses — and the counter advances once, after the last stage,
    /// to where that loop leaves it. [`OisaAccelerator::run_program_from`]
    /// checked everything a stage could refuse, a run of no frames and
    /// the epochs included.
    fn run_stages(
        &mut self,
        program: &LayerProgram,
        plan: &JobPlan,
        sensed: &[Sensed],
    ) -> Result<Vec<ProgramFrameReport>> {
        let stride = program.epochs_per_frame();
        let base = self.next_noise_epoch();
        let mut reports: Vec<ProgramFrameReport> = sensed
            .iter()
            .map(|_| ProgramFrameReport {
                stages: Vec::with_capacity(program.stages.len()),
                output: Vec::new(),
            })
            .collect();
        // Frame 0's epoch for the next optical stage.
        let mut epoch = base;
        for (i, stage) in program.stages.iter().enumerate() {
            let epochs = FrameEpochs {
                first: epoch,
                stride,
            };
            if stage.is_optical() {
                epoch += 1;
            }
            self.run_stage(program, i, plan, sensed, &mut reports, epochs)?;
        }
        self.align_noise_epoch(base + sensed.len() as u64 * stride)?;
        Ok(reports)
    }

    /// Stage `i` of `program` over every frame, under `epochs`: each
    /// frame's report gains the stage's, and its output becomes the
    /// stage's output.
    fn run_stage(
        &mut self,
        program: &LayerProgram,
        i: usize,
        plan: &JobPlan,
        sensed: &[Sensed],
        reports: &mut [ProgramFrameReport],
        epochs: FrameEpochs,
    ) -> Result<()> {
        match &program.stages[i] {
            Stage::Conv { kernels, .. } => {
                let planes: Vec<&[f32]> = kernels.iter().map(Vec::as_slice).collect();
                // Conv is stage 0: every dense stage comes after it.
                let conv =
                    self.convolve_sensed(sensed, &planes, &plan.conv()?, epochs, &mut |accel| {
                        accel.replay_dense_stages(program, plan, 1)
                    })?;
                for (report, conv) in reports.iter_mut().zip(conv) {
                    report.output = conv.output.concat();
                    report.stages.push(StageReport::Conv(conv));
                }
            }
            Stage::Dense { rows, matrix } => {
                let (scale, cols) = (plan.scales[i], plan.inputs[i]);
                // Stage 0's input was checked when the frames were
                // sensed; a later stage's is in [0, 1] by
                // `LayerProgram::validate`'s range inference.
                let dense = if i == 0 {
                    let inputs: Vec<&[f64]> = sensed.iter().map(|s| s.optical.as_slice()).collect();
                    self.dense_frames(matrix, scale, *rows, cols, &inputs, epochs)?
                } else {
                    let inputs: Vec<&[f32]> = reports.iter().map(|r| r.output.as_slice()).collect();
                    self.dense_frames(matrix, scale, *rows, cols, &inputs, epochs)?
                };
                for (report, dense) in reports.iter_mut().zip(dense) {
                    report.output = dense.output.clone();
                    report.stages.push(StageReport::Dense(dense));
                }
            }
            Stage::Quantize(QuantizeKind::Ternary) => {
                let t = TernaryActivation::paper_default();
                for report in reports {
                    for v in &mut report.output {
                        *v = t.encode(*v);
                    }
                    report.stages.push(StageReport::Quantize);
                }
            }
            Stage::Quantize(QuantizeKind::Levels { bits }) => {
                let q = LevelQuantizer::uniform(*bits)?;
                for report in reports {
                    for v in &mut report.output {
                        *v = q.nearest(*v);
                    }
                    report.stages.push(StageReport::Quantize);
                }
            }
            Stage::Activation(ActivationKind::Relu) => {
                for report in reports {
                    for v in &mut report.output {
                        *v = v.max(0.0);
                    }
                    report.stages.push(StageReport::Activation);
                }
            }
        }
        Ok(())
    }

    /// Replays the exit state of every dense stage of `program` from
    /// stage `from` on, in stage order, as
    /// [`OisaAccelerator::prewarm_dense`] does but with the scale `plan`
    /// holds.
    fn replay_dense_stages(
        &mut self,
        program: &LayerProgram,
        plan: &JobPlan,
        from: usize,
    ) -> Result<()> {
        for (i, stage) in program.stages.iter().enumerate().skip(from) {
            if let Stage::Dense { rows, matrix } = stage {
                self.replay_dense(matrix, plan.scales[i], *rows, plan.inputs[i])?;
            }
        }
        Ok(())
    }
}

/// The sequential oracle every program-capable backend is tested
/// against: a fresh accelerator from `config`, epochs aligned to
/// `base_epoch`, then [`OisaAccelerator::run_program_frames`] — one
/// [`OisaAccelerator::prewarm_program`] and the stage-major loop.
/// Bit-identical to a
/// [`FleetSupervisor`](crate::backend::FleetSupervisor) merge over any
/// fleet shape, by the module-docs argument.
///
/// # Errors
///
/// As [`OisaAccelerator::run_program_frames`].
pub fn run_reference(
    config: &OisaConfig,
    base_epoch: u64,
    program: &LayerProgram,
    frames: &[Frame],
) -> Result<Vec<ProgramFrameReport>> {
    let mut accel = OisaAccelerator::new(*config)?;
    accel.align_noise_epoch(base_epoch)?;
    accel.run_program_frames(program, frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OisaConfig {
        let mut cfg = OisaConfig::small_test();
        cfg.noise = oisa_device::noise::NoiseConfig::paper_default();
        cfg.seed = 21;
        cfg
    }

    fn frame(phase: usize) -> Frame {
        let data: Vec<f64> = (0..256)
            .map(|i| ((i * (phase + 3)) % 19) as f64 / 19.0)
            .collect();
        Frame::new(16, 16, data).unwrap()
    }

    #[test]
    fn validation_rejects_malformed_programs() {
        // Empty.
        assert!(LayerProgram::new(Vec::new()).is_err());
        // Stage 0 must consume the frame.
        assert!(LayerProgram::new(vec![Stage::Quantize(QuantizeKind::Ternary)]).is_err());
        assert!(LayerProgram::new(vec![Stage::Activation(ActivationKind::Relu)]).is_err());
        // Conv after stage 0.
        let conv = Stage::Conv {
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
        };
        assert!(LayerProgram::new(vec![conv.clone(), conv.clone()]).is_err());
        // Raw conv output is not a valid dense input...
        let dense = Stage::Dense {
            rows: 2,
            matrix: vec![0.1f32; 2 * 4 * 196],
        };
        assert!(LayerProgram::new(vec![conv.clone(), dense.clone()]).is_err());
        // ...a signed level quantise alone is not either...
        assert!(LayerProgram::new(vec![
            conv.clone(),
            Stage::Quantize(QuantizeKind::Levels { bits: 2 }),
            dense.clone(),
        ])
        .is_err());
        // ...but ternary, or signed+ReLU, licenses it.
        let conv4 = Stage::Conv {
            k: 3,
            kernels: vec![vec![0.5f32; 9]; 4],
        };
        LayerProgram::new(vec![
            conv4.clone(),
            Stage::Quantize(QuantizeKind::Ternary),
            dense.clone(),
        ])
        .unwrap();
        LayerProgram::new(vec![
            conv4,
            Stage::Quantize(QuantizeKind::Levels { bits: 3 }),
            Stage::Activation(ActivationKind::Relu),
            dense,
        ])
        .unwrap();
        // Quantiser bits out of range.
        let conv = Stage::Conv {
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
        };
        assert!(LayerProgram::new(vec![
            conv,
            Stage::Quantize(QuantizeKind::Levels { bits: 0 })
        ])
        .is_err());
    }

    #[test]
    fn output_lens_tracks_shapes_and_rejects_mismatches() {
        let program = LayerProgram::autoencoder(16, 16, 4, 8, 7).unwrap();
        let lens = program.output_lens(16, 16).unwrap();
        // conv: 4 maps of 14×14; quantize keeps length; dense: 8; relu: 8.
        assert_eq!(lens, vec![4 * 196, 4 * 196, 8, 8]);
        assert_eq!(program.epochs_per_frame(), 2);
        // The same program against mismatched frame dims fails shape
        // checking (the dense matrix no longer matches conv's output).
        assert!(program.output_lens(12, 12).is_err());
        // Dense-first: cols is the pixel count.
        let dense_first = LayerProgram::new(vec![Stage::Dense {
            rows: 3,
            matrix: vec![0.1f32; 3 * 256],
        }])
        .unwrap();
        assert_eq!(dense_first.output_lens(16, 16).unwrap(), vec![3]);
        assert_eq!(dense_first.epochs_per_frame(), 1);
        assert!(dense_first.output_lens(8, 8).is_err());
    }

    #[test]
    fn relu_stage_matches_oisa_nn_relu() {
        use oisa_nn::layer::{Layer, Relu};
        let values = vec![-1.5f32, -0.0, 0.0, 0.25, 3.5, f32::MIN_POSITIVE];
        let tensor = Tensor::from_vec(vec![values.len()], values.clone()).unwrap();
        let via_nn = Relu::new().forward(&tensor, false).unwrap();
        let via_stage: Vec<f32> = values.iter().map(|v| v.max(0.0)).collect();
        assert_eq!(via_nn.as_slice(), &via_stage[..]);
    }

    #[test]
    fn program_runs_are_history_independent_after_prewarm() {
        let program = LayerProgram::autoencoder(16, 16, 3, 6, 9).unwrap();
        // A fresh accelerator and one that already ran other work reach
        // identical reports once prewarm_program establishes the
        // steady state (epochs aligned).
        let mut fresh = OisaAccelerator::new(cfg()).unwrap();
        fresh.prewarm_program(&program).unwrap();
        let a = fresh.run_program_frame(&program, &frame(0)).unwrap();
        let mut used = OisaAccelerator::new(cfg()).unwrap();
        used.convolve_frame(&frame(4), &[vec![0.7f32; 25]], 5)
            .unwrap();
        used.dense_layer(&frame(5), &vec![0.2f32; 2 * 256], 2)
            .unwrap();
        used.align_noise_epoch(10).unwrap();
        // Re-align is impossible backwards; instead compare frame 1 of
        // a sequential run against the used accelerator's next frame
        // at the same epoch.
        let mut sequential = OisaAccelerator::new(cfg()).unwrap();
        sequential.align_noise_epoch(10).unwrap();
        sequential.prewarm_program(&program).unwrap();
        let seq = sequential.run_program_frame(&program, &frame(1)).unwrap();
        used.prewarm_program(&program).unwrap();
        let replayed = used.run_program_frame(&program, &frame(1)).unwrap();
        assert_eq!(seq, replayed, "prewarm_program must erase fabric history");
        assert_ne!(a, seq, "different epochs/frames must differ");
    }

    #[test]
    fn conv_only_program_matches_the_conv_job_path() {
        let kernels = vec![vec![0.4f32; 9], vec![-0.3f32; 9]];
        let program = LayerProgram::new(vec![Stage::Conv {
            k: 3,
            kernels: kernels.clone(),
        }])
        .unwrap();
        let frames: Vec<Frame> = (0..3).map(frame).collect();
        let via_program = run_reference(&cfg(), 0, &program, &frames).unwrap();
        let mut accel = OisaAccelerator::new(cfg()).unwrap();
        let via_batch = accel.convolve_frames(&frames, &kernels, 3).unwrap();
        for (index, (p, b)) in via_program.iter().zip(&via_batch).enumerate() {
            assert_eq!(p.stages.len(), 1);
            match &p.stages[0] {
                StageReport::Conv(report) => {
                    // Feature maps are bit-identical on every frame.
                    // Full reports (incl. energy) match from frame 1
                    // on: the batch path enters frame 0 cold and pays
                    // the staging tuning there, while a program
                    // prewarms to steady state before any frame.
                    assert_eq!(report.output, b.output);
                    if index > 0 {
                        assert_eq!(report, b);
                    }
                }
                other => panic!("expected a conv stage report, got {other:?}"),
            }
            assert_eq!(p.output, b.output.concat());
        }
    }

    #[test]
    fn epochs_advance_by_program_stride() {
        let program = LayerProgram::autoencoder(16, 16, 2, 4, 3).unwrap();
        let mut accel = OisaAccelerator::new(cfg()).unwrap();
        accel.prewarm_program(&program).unwrap();
        assert_eq!(accel.next_noise_epoch(), 0, "prewarm consumes no epochs");
        accel.run_program_frame(&program, &frame(0)).unwrap();
        assert_eq!(accel.next_noise_epoch(), program.epochs_per_frame());
        accel.run_program_frame(&program, &frame(1)).unwrap();
        assert_eq!(accel.next_noise_epoch(), 2 * program.epochs_per_frame());
    }

    #[test]
    fn autoencoder_is_deterministic_in_its_seed() {
        let a = LayerProgram::autoencoder(16, 16, 4, 8, 7).unwrap();
        let b = LayerProgram::autoencoder(16, 16, 4, 8, 7).unwrap();
        let c = LayerProgram::autoencoder(16, 16, 4, 8, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(LayerProgram::autoencoder(16, 16, 0, 8, 7).is_err());
        assert!(LayerProgram::autoencoder(2, 2, 4, 8, 7).is_err());
    }
}
