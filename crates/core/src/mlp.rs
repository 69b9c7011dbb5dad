//! MLP (fully connected) first-layer execution via the VOM.
//!
//! Paper §III-A: "In the case of the MLP, the number of dot products is
//! enormous. To reduce the complexity of the calculations, the VOM unit
//! … enables OISA to break the intensive MAC operations into smaller
//! parts." A dense row of `n` weights becomes `⌈n / 9⌉` arm-sized
//! chunks; each chunk computes optically and the VOM accumulates and
//! re-modulates the partial sums.
//!
//! Like the convolution pipeline, the dense path draws its noise from
//! counter-based streams — keyed by `(epoch, row, chunk)` — so
//! evaluation order never changes the physics. Weights are normalised
//! by the matrix's joint maximum magnitude, and two engines evaluate
//! them:
//!
//! * [`matvec`] — the serial oracle: chunks round-robin over the shared
//!   fabric via `load_arm`, exactly as the hardware would serialise
//!   them.
//! * [`matvec_parallel`] — fans rows out over the work-stealing
//!   scheduler; each row task stages its row once per call, one byte
//!   per weight (quantisation code and sign, through a per-code
//!   [`RingTable`]), forms each chunk's taps from the staged bytes
//!   ([`RingTable::taps`]) and evaluates them through
//!   [`RingTable::fused_mac`], the fused MAC every convolution window
//!   runs too — a ring's state depends only on its weight's code, so a
//!   chunk needs two table lookups per tap, not an arm re-tune. The
//!   input is validated once per call, so no chunk is checked, and no
//!   chunk allocates, branches on a weight's sign or builds a
//!   [`MacResult`](oisa_optics::arm::MacResult): a row task
//!   writes each chunk's value and optical energy into a buffer laid
//!   out before the call, and the reduction
//!   feeds them to the VOM ([`Vom::accumulate_and_transmit_values`]) in
//!   the serial engine's order. No row keeps per-worker state or
//!   touches the fabric. Output, energy, latency and chunk count are
//!   bit-identical to [`matvec`] under the same seed and epoch.
//!
//! [`matvec_parallel`] is a one-frame call of the staged engine behind
//! it, which evaluates one matrix against many frames' inputs at once,
//! each frame under its own noise epoch: a row task stages its row once,
//! forms each chunk's taps once and folds them against every frame, and
//! the fabric exit state is replayed once per call. A layer program
//! run
//! ([`OisaAccelerator::run_program_frames`](crate::accelerator::OisaAccelerator::run_program_frames))
//! runs each dense stage that way, once over all its frames.

use oisa_device::noise::NoiseSource;
use oisa_optics::arm::RingTable;
use oisa_optics::opc::Opc;
use oisa_optics::vom::Vom;
use oisa_optics::weights::WeightMapper;
use oisa_units::{Joule, Second};
use serde::{Deserialize, Serialize};

use crate::accelerator::FrameEpochs;
use crate::{scheduler, CoreError, Result};

/// Elements of a dense row executed per arm (the paper's 3×3-sized
/// chunks: nine weights plus the spare slot).
pub(crate) const CHUNK: usize = 9;

/// Result of one dense matrix–vector product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatVecReport {
    /// The output vector, one value per matrix row.
    pub output: Vec<f32>,
    /// Chunks evaluated in total.
    pub chunks: usize,
    /// Total energy (optical + VOM accumulation/re-modulation).
    pub energy: Joule,
    /// Serialized latency over all chunk evaluations.
    pub latency: Second,
}

/// Executes `matrix · input` (row-major `rows × cols` matrix) on the
/// optical fabric, chunking every row across arms and aggregating
/// through the VOM.
///
/// Weights are normalised per call by the joint maximum magnitude;
/// `input` must already be in the VAM's normalised optical domain
/// (`[0, 1]`).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for shape mismatches, out-of-range
///   inputs or a weight that is not finite (the first, by index),
///   before the noise epoch is consumed or any arm loads.
/// * Substrate errors from the optical fabric.
#[allow(clippy::too_many_arguments)]
pub fn matvec(
    opc: &mut Opc,
    vom: &Vom,
    mapper: &WeightMapper,
    matrix: &[f32],
    rows: usize,
    cols: usize,
    input: &[f64],
    noise: &mut NoiseSource,
) -> Result<MatVecReport> {
    let scale = validate_matvec(matrix, rows, cols, input)?;
    let normalised: Vec<f64> = matrix.iter().map(|&w| normalise(w, scale)).collect();
    let arms_per_bank = oisa_optics::bank::ARMS_PER_BANK;
    let epoch = noise.begin_epoch()?;
    let mut output = Vec::with_capacity(rows);
    let mut total_chunks = 0usize;
    let mut energy = Joule::ZERO;
    let mut latency = Second::ZERO;
    let mut partials = Vec::with_capacity(cols.div_ceil(CHUNK));
    for r in 0..rows {
        let row = &normalised[r * cols..(r + 1) * cols];
        let row_stream = noise.slot_stream(epoch, r as u64);
        partials.clear();
        for (ci, (w_chunk, a_chunk)) in row.chunks(CHUNK).zip(input.chunks(CHUNK)).enumerate() {
            // Round-robin chunks over the fabric; each chunk occupies one
            // arm for its evaluation.
            let slot = (total_chunks + ci) % (opc.bank_count() * arms_per_bank);
            let bank = slot / arms_per_bank;
            let arm = slot % arms_per_bank;
            opc.bank_mut(bank)?.load_arm(arm, w_chunk, mapper)?;
            // Counter-based stream per (row, chunk): draws are addressed,
            // not consumed, so chunk evaluation order is immaterial.
            let stream = row_stream.at(ci as u64);
            let result = opc.compute_arm(bank, arm, a_chunk, &mut stream.cursor())?;
            energy += result.optical_energy;
            partials.push(result);
        }
        total_chunks += partials.len();
        let agg = vom.accumulate_and_transmit(&partials)?;
        energy += agg.energy;
        latency += agg.latency;
        output.push((agg.value * f64::from(scale)) as f32);
    }
    Ok(MatVecReport {
        output,
        chunks: total_chunks,
        energy,
        latency,
    })
}

/// Parallel twin of [`matvec`]: a one-frame call of the staged dense
/// engine every dense stage of a layer program runs too. Rows fan out
/// over the work-stealing scheduler and evaluate without touching the
/// shared fabric.
///
/// After the call is validated and the noise epoch is consumed, one
/// [`RingTable`] is built from the core's arm design and `mapper`. Each
/// row task stages its row through it ([`RingTable::stage`]: one byte
/// per weight, quantised once per call instead of once per chunk load),
/// then forms each chunk's taps ([`RingTable::taps`]), which takes each
/// ring's crosstalk × waveguide gain from its in-chunk neighbours'
/// codes, and evaluates them through [`RingTable::fused_mac`] at base
/// counter 0 of the same `(epoch, row, chunk)` noise stream the serial
/// engine would use — arm state after `load_weights` depends only on
/// the loaded chunk, never on fabric history, so every chunk's value
/// and energy are bit-identical to the serial path's
/// [`MacResult`](oisa_optics::arm::MacResult). The final reduction
/// walks rows in order with the serial engine's exact floating-point
/// grouping.
///
/// The consumed noise epoch matches [`matvec`], and the fabric is left
/// in the serial engine's exact exit state (each used arm's final two
/// round-robin loads are replayed, which pins both the ring operating
/// points and the per-arm recorded tuning energy/latency) — so the two
/// engines are drop-in interchangeable under a seed, including for
/// whatever runs on the fabric afterwards.
///
/// # Errors
///
/// Same contract as [`matvec`].
#[allow(clippy::too_many_arguments)]
pub fn matvec_parallel(
    opc: &mut Opc,
    vom: &Vom,
    mapper: &WeightMapper,
    matrix: &[f32],
    rows: usize,
    cols: usize,
    input: &[f64],
    noise: &mut NoiseSource,
) -> Result<MatVecReport> {
    let scale = validate_matvec(matrix, rows, cols, input)?;
    let epochs = FrameEpochs {
        first: noise.begin_epoch()?,
        stride: 1,
    };
    matvec_frames(
        opc,
        vom,
        mapper,
        matrix,
        scale,
        rows,
        cols,
        &[input],
        noise,
        epochs,
    )?
    .pop()
    .ok_or_else(|| CoreError::InvalidParameter("no input evaluated".into()))
}

/// The staged dense engine: `matrix · inputs[f]` for every frame `f`
/// in one scheduler call over rows, frame `f` drawing under
/// `epochs.of(f)`, with `matrix` normalised by `scale`, its
/// [`matrix_scale`]. The caller owns the epochs and has made sure the
/// shape holds ([`check_shape`]) and every input lies in `[0, 1]`;
/// nothing here checks an input or touches the noise counter.
///
/// A row task stages its row, then forms each chunk's taps once and
/// folds them against every frame's activations, each at base counter
/// 0 of that frame's `(epoch, row, chunk)` stream — a chunk's taps
/// depend only on its staged bytes, never on the frame. Activations
/// widen to `f64` a chunk at a time, so a caller holding `f32` values
/// keeps no wide copy. Each frame's reduction then walks rows in order
/// with [`matvec`]'s grouping, and the fabric exit state is replayed
/// once for the whole call: it depends only on the matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matvec_frames<T: Copy + Into<f64> + Sync>(
    opc: &mut Opc,
    vom: &Vom,
    mapper: &WeightMapper,
    matrix: &[f32],
    scale: f32,
    rows: usize,
    cols: usize,
    inputs: &[&[T]],
    noise: &NoiseSource,
    epochs: FrameEpochs,
) -> Result<Vec<MatVecReport>> {
    let table = RingTable::new(opc.config().arm, mapper, noise.config())?;
    let chunks = cols.div_ceil(CHUNK);
    let span = inputs.len() * chunks;
    // Every buffer is laid out here, one slice per row task: the row's
    // staged bytes, and its chunk values and optical energies in
    // `(frame, chunk)` order.
    let mut codes = vec![0u8; rows * cols];
    let mut values = vec![0.0f64; rows * span];
    let mut energies = vec![0.0f64; rows * span];
    let items: Vec<_> = codes
        .chunks_mut(cols)
        .zip(values.chunks_mut(span))
        .zip(energies.chunks_mut(span))
        .enumerate()
        .collect();
    let staged = scheduler::execute(items, |_, (r, ((codes, values), energies))| -> Result<()> {
        for (code, &w) in codes.iter_mut().zip(&matrix[r * cols..(r + 1) * cols]) {
            *code = table.stage(normalise(w, scale))?;
        }
        let streams: Vec<_> = (0..inputs.len())
            .map(|f| noise.slot_stream(epochs.of(f), r as u64))
            .collect();
        for (ci, w_chunk) in codes.chunks(CHUNK).enumerate() {
            // The checks were made once per call and every byte came
            // from `table.stage`, so the chunk skips them.
            let taps = table.taps(w_chunk);
            let lanes = ci * CHUNK..ci * CHUNK + w_chunk.len();
            for (f, (input, stream)) in inputs.iter().zip(&streams).enumerate() {
                let mut activations = [0.0f64; CHUNK];
                for (a, &x) in activations.iter_mut().zip(&input[lanes.clone()]) {
                    *a = x.into();
                }
                let (value, energy) = table.fused_mac(
                    &taps,
                    &activations[..w_chunk.len()],
                    &stream.at(ci as u64),
                    0,
                );
                values[f * chunks + ci] = value;
                energies[f * chunks + ci] = energy;
            }
        }
        Ok(())
    });
    // The first failing row in row order — the serial engine's first
    // failure — is the error.
    staged.into_iter().collect::<Result<()>>()?;
    // Per frame, the ordered reduction with the serial engine's exact
    // grouping: per row, chunk energies first, then the VOM aggregate.
    let mut reports = Vec::with_capacity(inputs.len());
    for f in 0..inputs.len() {
        let mut output = Vec::with_capacity(rows);
        let mut energy = Joule::ZERO;
        let mut latency = Second::ZERO;
        for r in 0..rows {
            let lanes = r * span + f * chunks..r * span + (f + 1) * chunks;
            for &e in &energies[lanes.clone()] {
                energy += Joule::new(e);
            }
            let agg = vom.accumulate_and_transmit_values(&values[lanes], table.latency())?;
            energy += agg.energy;
            latency += agg.latency;
            output.push((agg.value * f64::from(scale)) as f32);
        }
        reports.push(MatVecReport {
            output,
            chunks: rows * chunks,
            energy,
            latency,
        });
    }

    // Leave the shared fabric exactly as the serial engine would, so
    // the two paths stay interchangeable for whatever runs next.
    replay_exit_state(opc, mapper, matrix, scale, rows, cols)?;
    Ok(reports)
}

/// Reproduces the fabric exit state a serial [`matvec`] over the
/// row-major `rows × cols` `matrix`, normalised by `scale`, would
/// leave, without computing anything or consuming noise epochs. The
/// caller has checked the shape ([`check_shape`]).
///
/// Ring state after a load depends only on that load's chunk, and an
/// arm's recorded tuning energy/latency only on its previous operating
/// point — so replaying each used arm's final two round-robin loads (in
/// any arm order) reproduces the serial exit state bit-for-bit at a
/// cost bounded by the fabric size, not the chunk count. Only the
/// reloaded chunks are normalised.
///
/// The staged engine behind [`matvec_parallel`] runs this once per
/// call, after its ordered reduction; the layer-program prewarm
/// ([`OisaAccelerator::prewarm_program`](crate::accelerator::OisaAccelerator::prewarm_program))
/// runs it per dense stage so a shard's first frame sees exactly the
/// steady-state fabric a sequential per-frame loop reaches.
pub(crate) fn replay_exit_state(
    opc: &mut Opc,
    mapper: &WeightMapper,
    matrix: &[f32],
    scale: f32,
    rows: usize,
    cols: usize,
) -> Result<()> {
    let arms_per_bank = oisa_optics::bank::ARMS_PER_BANK;
    let nslots = opc.bank_count() * arms_per_bank;
    let chunks_per_row = cols.div_ceil(CHUNK);
    let total_chunks = rows * chunks_per_row;
    let mut chunk = [0.0f64; CHUNK];
    let mut load = |opc: &mut Opc, slot: usize, g: usize| -> Result<()> {
        let start = (g / chunks_per_row) * cols + (g % chunks_per_row) * CHUNK;
        let end = (g / chunks_per_row) * cols + cols.min((g % chunks_per_row) * CHUNK + CHUNK);
        let chunk = &mut chunk[..end - start];
        for (n, &w) in chunk.iter_mut().zip(&matrix[start..end]) {
            *n = normalise(w, scale);
        }
        opc.bank_mut(slot / arms_per_bank)?
            .load_arm(slot % arms_per_bank, chunk, mapper)?;
        Ok(())
    };
    for slot in 0..nslots.min(total_chunks) {
        // Serial chunk `g` (row-major) lands on arm `g % nslots`; the
        // last such `g` fixes this arm's final weights, the one before
        // it the operating point that final tuning was paid from.
        let last = slot + ((total_chunks - 1 - slot) / nslots) * nslots;
        if last >= nslots {
            load(opc, slot, last - nslots)?;
        }
        load(opc, slot, last)?;
    }
    Ok(())
}

/// Shape, input and weight validation shared by both matvec engines,
/// before the noise epoch or any fabric state changes: errors name the
/// offending index. Returns the matrix's [`matrix_scale`].
fn validate_matvec(matrix: &[f32], rows: usize, cols: usize, input: &[f64]) -> Result<f32> {
    check_shape(matrix.len(), rows, cols)?;
    if input.len() != cols {
        return Err(CoreError::InvalidParameter(format!(
            "input length {} != cols {cols}",
            input.len()
        )));
    }
    if let Some(i) = input.iter().position(|a| !(0.0..=1.0).contains(a)) {
        return Err(CoreError::InvalidParameter(format!(
            "input activation {} at index {i} outside [0, 1]",
            input[i]
        )));
    }
    matrix_scale(matrix).map_err(CoreError::InvalidParameter)
}

/// Rejects a matrix of `len` weights that is not a non-empty
/// `rows × cols`, including a shape whose element count overflows
/// `usize` (which would otherwise wrap onto a matching length).
pub(crate) fn check_shape(len: usize, rows: usize, cols: usize) -> Result<()> {
    if rows == 0 || cols == 0 || rows.checked_mul(cols) != Some(len) {
        return Err(CoreError::InvalidParameter(format!(
            "matrix {rows}x{cols} does not match {len} elements"
        )));
    }
    Ok(())
}

/// The per-tensor scale: the joint maximum weight magnitude (floored so
/// an all-zero matrix divides safely), or what is wrong with the first
/// weight that is not finite. The one scan of a matrix every dense path
/// makes before anything moves, so all of them normalise and refuse
/// alike. A magnitude's bits order as its value does, and a non-finite
/// one's exceed `f32::MAX`'s, so the scan is one branch-free maximum
/// over bits, which vectorises; only a matrix holding a non-finite
/// weight is walked again, to name the first.
pub(crate) fn matrix_scale(matrix: &[f32]) -> std::result::Result<f32, String> {
    let bits = matrix
        .iter()
        .fold(0, |m, w| m.max(w.to_bits() & 0x7fff_ffff));
    if bits > f32::MAX.to_bits() {
        if let Some((index, w)) = matrix.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(format!(
                "dense weight {index} is {w}: weights must be finite"
            ));
        }
    }
    Ok(f32::from_bits(bits).max(f32::MIN_POSITIVE))
}

/// One weight normalised by `scale` into `[-1, 1]` — in `f32`, then
/// widened, the exact bits every path loads or stages.
fn normalise(w: f32, scale: f32) -> f64 {
    f64::from(w / scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource};
    use oisa_optics::arm::ArmConfig;
    use oisa_optics::opc::OpcConfig;
    use oisa_optics::vom::VomConfig;

    fn fabric() -> (Opc, Vom, WeightMapper) {
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig::no_crosstalk(),
        };
        (
            Opc::new(cfg).unwrap(),
            Vom::new(VomConfig::paper_default()).unwrap(),
            WeightMapper::ideal(4).unwrap(),
        )
    }

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    #[test]
    fn matvec_matches_reference() {
        let (mut opc, vom, mapper) = fabric();
        // 3×12 matrix → each row spans 2 chunks.
        let rows = 3;
        let cols = 12;
        let matrix: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let input: Vec<f64> = (0..cols).map(|i| (i as f64) / cols as f64).collect();
        let report = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut quiet(),
        )
        .unwrap();
        assert_eq!(report.output.len(), rows);
        assert_eq!(report.chunks, rows * 2);
        for r in 0..rows {
            let exact: f64 = (0..cols)
                .map(|c| f64::from(matrix[r * cols + c]) * input[c])
                .sum();
            let got = f64::from(report.output[r]);
            assert!(
                (got - exact).abs() < 0.25,
                "row {r}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn large_row_chunk_count() {
        let (mut opc, vom, mapper) = fabric();
        // One 784-wide row (an MNIST-sized MLP input) → 88 chunks.
        let cols = 784;
        let matrix = vec![0.01f32; cols];
        let input = vec![0.5f64; cols];
        let report = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            1,
            cols,
            &input,
            &mut quiet(),
        )
        .unwrap();
        assert_eq!(report.chunks, 88);
        let exact = 0.01 * 0.5 * cols as f64;
        assert!(
            (f64::from(report.output[0]) - exact).abs() < 0.4,
            "got {} exact {exact}",
            report.output[0]
        );
    }

    #[test]
    fn energy_and_latency_scale_with_rows() {
        let (mut opc, vom, mapper) = fabric();
        let cols = 18;
        let run = |opc: &mut Opc, rows: usize| {
            let matrix = vec![0.1f32; rows * cols];
            let input = vec![0.5f64; cols];
            matvec(
                opc,
                &vom,
                &mapper,
                &matrix,
                rows,
                cols,
                &input,
                &mut quiet(),
            )
            .unwrap()
        };
        let one = run(&mut opc, 1);
        let four = run(&mut opc, 4);
        assert!(four.energy.get() > 3.0 * one.energy.get());
        assert!(four.latency.get() > 3.0 * one.latency.get());
    }

    #[test]
    fn parallel_matvec_bit_identical_to_serial() {
        // Force real worker threads so the claim is exercised even on
        // single-CPU hosts.
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(4);
        let (mut opc, vom, mapper) = fabric();
        // 7×23: ragged final chunk, rows spanning 3 chunks.
        let rows = 7;
        let cols = 23;
        let matrix: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.13).sin()).collect();
        let input: Vec<f64> = (0..cols)
            .map(|i| (i as f64 * 0.37).sin().abs().min(1.0))
            .collect();
        let mut serial_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let mut parallel_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let serial = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut serial_noise,
        )
        .unwrap();
        let mut par_opc = {
            let (opc, _, _) = fabric();
            opc
        };
        let parallel = matvec_parallel(
            &mut par_opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut parallel_noise,
        )
        .unwrap();
        assert_eq!(serial, parallel, "reports must be bit-identical");
        // And the fabric exits in the serial engine's exact state, so
        // the engines stay interchangeable for whatever runs next.
        assert_eq!(
            opc, par_opc,
            "fabric exit state must match the serial engine"
        );
    }

    #[test]
    fn parallel_matvec_validates_like_serial() {
        let (mut opc, vom, mapper) = fabric();
        let mut noise = quiet();
        assert!(
            matvec_parallel(&mut opc, &vom, &mapper, &[0.1; 6], 2, 4, &[0.5; 4], &mut noise)
                .is_err()
        );
        let mut input = vec![0.5f64; 12];
        input[4] = -0.3;
        let err = matvec_parallel(
            &mut opc, &vom, &mapper, &[0.1; 12], 1, 12, &input, &mut noise,
        )
        .unwrap_err();
        assert!(err.to_string().contains("index 4"));
    }

    #[test]
    fn matrix_scale_is_the_largest_magnitude_or_the_first_bad_weight() {
        // The bit maximum equals the float maximum of the magnitudes,
        // zeros, subnormals and the extremes included.
        let float_max = |m: &[f32]| m.iter().fold(0.0f32, |s, w| s.max(w.abs()));
        for matrix in [
            vec![],
            vec![0.0, -0.0],
            vec![1e-42, -3e-41, 0.0],
            vec![-0.75, 0.5, f32::MIN_POSITIVE],
            vec![f32::MAX, -f32::MAX, 1.0],
            (0..999).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
        ] {
            let expected = float_max(&matrix).max(f32::MIN_POSITIVE);
            let scale = matrix_scale(&matrix).unwrap();
            assert_eq!(scale.to_bits(), expected.to_bits(), "{matrix:?}");
        }
        // The refusal names the first weight that is not finite.
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut matrix = vec![0.5f32; 64];
            matrix[40] = f32::NAN;
            matrix[17] = bad;
            let err = matrix_scale(&matrix).unwrap_err();
            assert_eq!(
                err,
                format!("dense weight 17 is {bad}: weights must be finite")
            );
        }
    }

    #[test]
    fn out_of_range_input_reports_index() {
        let (mut opc, vom, mapper) = fabric();
        let mut input = vec![0.5f64; 12];
        input[7] = 1.7;
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 12],
            1,
            12,
            &input,
            &mut quiet(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("index 7"), "must name the index: {msg}");
    }

    #[test]
    fn shape_validation() {
        let (mut opc, vom, mapper) = fabric();
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 6],
            2,
            4,
            &[0.5; 4],
            &mut quiet(),
        );
        assert!(err.is_err());
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 8],
            2,
            4,
            &[0.5; 3],
            &mut quiet(),
        );
        assert!(err.is_err());
        let err = matvec(&mut opc, &vom, &mapper, &[], 0, 0, &[], &mut quiet());
        assert!(err.is_err());
    }
}
