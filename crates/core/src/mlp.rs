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
//! evaluation order never changes the physics. The whole weight matrix
//! is normalised in one up-front scan (one division per element, no
//! per-chunk staging buffer in the row loop), and two engines share
//! that staging:
//!
//! * [`matvec`] — the serial oracle: chunks round-robin over the shared
//!   fabric via `load_arm`, exactly as the hardware would serialise
//!   them.
//! * [`matvec_parallel`] — rows fan out over the work-stealing
//!   scheduler and every chunk stages from one per-code [`RingTable`],
//!   built once per call: a ring's state depends only on its weight's
//!   quantisation code, so a chunk needs a code lookup per tap, not an
//!   arm re-tune. No row allocates per chunk, keeps per-worker state
//!   or touches the fabric. Output, energy, latency and chunk count
//!   are bit-identical to [`matvec`] under the same seed and epoch.

use oisa_device::noise::NoiseSource;
use oisa_optics::arm::{MacResult, RingTable};
use oisa_optics::opc::Opc;
use oisa_optics::vom::Vom;
use oisa_optics::weights::WeightMapper;
use oisa_units::{Joule, Second};
use serde::{Deserialize, Serialize};

use crate::{scheduler, CoreError, Result};

/// Elements of a dense row executed per arm (the paper's 3×3-sized
/// chunks: nine weights plus the spare slot).
pub const CHUNK: usize = 9;

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
/// * [`CoreError::InvalidParameter`] for shape mismatches or
///   out-of-range inputs.
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
    validate_matvec(matrix, rows, cols, input)?;
    let (scale, normalised) = normalise_matrix(matrix);
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

/// Parallel twin of [`matvec`]: rows fan out over the work-stealing
/// scheduler and evaluate without touching the shared fabric.
///
/// One [`RingTable`] is built per call from the core's arm design and
/// `mapper`. Per chunk a row task quantises the weights into a stack
/// array, forms each ring's crosstalk × waveguide gain from its
/// in-chunk neighbours' codes and evaluates through the same
/// `(epoch, row, chunk)` noise stream the serial engine would use —
/// arm state after `load_weights` depends only on the loaded chunk,
/// never on fabric history, so every [`MacResult`] is bit-identical to
/// the serial path's. The final reduction walks rows in order with the
/// serial engine's exact floating-point grouping.
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
    validate_matvec(matrix, rows, cols, input)?;
    let (scale, normalised) = normalise_matrix(matrix);
    let epoch = noise.begin_epoch()?;
    let table = RingTable::new(opc.config().arm, mapper)?;
    let row_partials: Vec<Result<Vec<MacResult>>> =
        scheduler::execute((0..rows).collect(), |_, r| -> Result<Vec<MacResult>> {
            let row = &normalised[r * cols..(r + 1) * cols];
            let row_stream = noise.slot_stream(epoch, r as u64);
            let mut partials = Vec::with_capacity(cols.div_ceil(CHUNK));
            for (ci, (w_chunk, a_chunk)) in row.chunks(CHUNK).zip(input.chunks(CHUNK)).enumerate() {
                let stream = row_stream.at(ci as u64);
                partials.push(table.mac(w_chunk, a_chunk, &mut stream.cursor())?);
            }
            Ok(partials)
        });
    // Ordered reduction with the serial engine's exact grouping: per
    // row, chunk energies first, then the VOM aggregate.
    let mut output = Vec::with_capacity(rows);
    let mut total_chunks = 0usize;
    let mut energy = Joule::ZERO;
    let mut latency = Second::ZERO;
    for partials in row_partials {
        let partials = partials?;
        for p in &partials {
            energy += p.optical_energy;
        }
        total_chunks += partials.len();
        let agg = vom.accumulate_and_transmit(&partials)?;
        energy += agg.energy;
        latency += agg.latency;
        output.push((agg.value * f64::from(scale)) as f32);
    }

    // Leave the shared fabric exactly as the serial engine would, so
    // the two paths stay interchangeable for whatever runs next.
    replay_exit_state(opc, mapper, &normalised, rows, cols)?;

    Ok(MatVecReport {
        output,
        chunks: total_chunks,
        energy,
        latency,
    })
}

/// Reproduces the fabric exit state a serial [`matvec`] over the
/// `rows × cols` matrix `normalised` (already scale-normalised into
/// `[-1, 1]` f64) would leave, without computing anything or consuming
/// noise epochs.
///
/// Ring state after a load depends only on that load's chunk, and an
/// arm's recorded tuning energy/latency only on its previous operating
/// point — so replaying each used arm's final two round-robin loads (in
/// any arm order) reproduces the serial exit state bit-for-bit at a
/// cost bounded by the fabric size, not the chunk count.
///
/// [`matvec_parallel`] runs this after its ordered reduction; the
/// layer-program prewarm
/// ([`OisaAccelerator::prewarm_program`](crate::accelerator::OisaAccelerator::prewarm_program))
/// runs it per dense stage so a shard's first frame sees exactly the
/// steady-state fabric a sequential per-frame loop reaches.
pub(crate) fn replay_exit_state(
    opc: &mut Opc,
    mapper: &WeightMapper,
    normalised: &[f64],
    rows: usize,
    cols: usize,
) -> Result<()> {
    let arms_per_bank = oisa_optics::bank::ARMS_PER_BANK;
    let nslots = opc.bank_count() * arms_per_bank;
    let chunks_per_row = cols.div_ceil(CHUNK);
    let total_chunks = rows * chunks_per_row;
    let chunk_of = |g: usize| {
        let start = (g / chunks_per_row) * cols + (g % chunks_per_row) * CHUNK;
        let end = (g / chunks_per_row) * cols + cols.min((g % chunks_per_row) * CHUNK + CHUNK);
        &normalised[start..end]
    };
    for slot in 0..nslots.min(total_chunks) {
        // Serial chunk `g` (row-major) lands on arm `g % nslots`; the
        // last such `g` fixes this arm's final weights, the one before
        // it the operating point that final tuning was paid from.
        let last = slot + ((total_chunks - 1 - slot) / nslots) * nslots;
        let bank = slot / arms_per_bank;
        let arm = slot % arms_per_bank;
        if last >= nslots {
            opc.bank_mut(bank)?
                .load_arm(arm, chunk_of(last - nslots), mapper)?;
        }
        opc.bank_mut(bank)?.load_arm(arm, chunk_of(last), mapper)?;
    }
    Ok(())
}

/// Shape/range validation shared by both matvec engines; range errors
/// report the offending index before any fabric state changes.
fn validate_matvec(matrix: &[f32], rows: usize, cols: usize, input: &[f64]) -> Result<()> {
    if matrix.len() != rows * cols || rows == 0 || cols == 0 {
        return Err(CoreError::InvalidParameter(format!(
            "matrix {rows}x{cols} does not match {} elements",
            matrix.len()
        )));
    }
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
    Ok(())
}

/// One scan for the per-tensor scale, one pass normalising the whole
/// matrix — hoisted out of the row loop so neither engine re-stages
/// weights per chunk. Shared with the layer-program dense prewarm so
/// its [`replay_exit_state`] stages the exact bits the engines load.
pub(crate) fn normalise_matrix(matrix: &[f32]) -> (f32, Vec<f64>) {
    let scale = matrix
        .iter()
        .fold(0.0f32, |m, w| m.max(w.abs()))
        .max(f32::MIN_POSITIVE);
    let normalised = matrix.iter().map(|&w| f64::from(w / scale)).collect();
    (scale, normalised)
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
