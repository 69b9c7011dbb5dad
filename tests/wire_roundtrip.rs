//! Property tests of the wire schema: encode → decode is lossless
//! (bit-exact, including every float field of a `ConvolutionReport`),
//! and malformed inputs — any other schema version, truncated payloads,
//! truncated length prefixes — fail with typed decode errors, never
//! panics.

use oisa::core::accelerator::EnergyReport;
use oisa::core::controller::Timeline;
use oisa::core::program::{
    ActivationKind, LayerProgram, ProgramFrameReport, QuantizeKind, Stage, StageReport,
};
use oisa::core::wire::{
    self, FabricEntry, Handshake, ProgramReport, ProgramShard, RefusalCode, ShardRefusal,
    WireError, WireMessage, SCHEMA_VERSION,
};
use oisa::core::{ConvolutionReport, MappingPlan};
use oisa::sensor::Frame;
use oisa::units::{Joule, Second};
use proptest::prelude::*;

/// Builds a frame whose pixels are derived from sampled unit floats.
fn frame_from(width: usize, height: usize, samples: &[f64]) -> Frame {
    let data: Vec<f64> = (0..width * height)
        .map(|i| samples[i % samples.len()].clamp(0.0, 1.0))
        .collect();
    Frame::new(width, height, data).unwrap()
}

fn kernels_from(count: usize, k: usize, weights: &[f32]) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..k * k)
                .map(|j| weights[(i * k * k + j) % weights.len()])
                .collect()
        })
        .collect()
}

/// A synthetic report exercising every field with sampled values.
fn report_from(out_h: usize, out_w: usize, maps: usize, floats: &[f64]) -> ConvolutionReport {
    let f = |i: usize| floats[i % floats.len()];
    ConvolutionReport {
        output: (0..maps)
            .map(|m| (0..out_h * out_w).map(|i| f(m * 31 + i) as f32).collect())
            .collect(),
        out_h,
        out_w,
        plan: MappingPlan {
            kernel_size_class: 3,
            slots_per_pass: 20,
            passes: maps.div_ceil(20).max(1),
            planes_last_pass: maps.clamp(1, 20),
            parallel_positions: 1 + out_w % 7,
            cycles_per_pass: out_h * out_w,
            rings_per_pass: 9 * maps.clamp(1, 20),
            tuning_iterations_per_pass: 1 + maps % 5,
            macs_per_cycle: 9 * (1 + out_w % 7),
        },
        timeline: Timeline {
            capture: Second::new(f(0).abs()),
            mapping: Second::new(f(1).abs()),
            compute: Second::new(f(2).abs()),
            transmit: Second::new(f(3).abs()),
            control: Second::new(f(4).abs()),
        },
        energy: EnergyReport {
            sensing: Joule::new(f(5).abs()),
            encoding: Joule::new(f(6).abs()),
            tuning: Joule::new(f(7).abs()),
            compute: Joule::new(f(8).abs()),
            aggregation: Joule::new(f(9).abs()),
            memory: Joule::new(f(10).abs()),
        },
    }
}

/// Entry state `kind % 3` of a shard: cold, warm on its own program,
/// or warm on a previous 5×5 kernel set.
fn entry_from(kind: usize, weights: &[f32]) -> FabricEntry {
    match kind % 3 {
        0 => FabricEntry::Cold,
        1 => FabricEntry::WarmSelf,
        _ => FabricEntry::Warm {
            k: 5,
            kernels: kernels_from(2, 5, weights),
        },
    }
}

/// A conv job's frame report, honest as a worker builds it: the one
/// conv stage, and as output the concatenation of its maps.
fn conv_frame_report(conv: ConvolutionReport) -> ProgramFrameReport {
    let output = conv.output.concat();
    ProgramFrameReport {
        stages: vec![StageReport::Conv(conv)],
        output,
    }
}

proptest! {
    /// A conv job's shard — the one-stage conv program, in every entry
    /// state — and its report, whose frame reports carry full
    /// `ConvolutionReport`s, round-trip bit-exactly.
    #[test]
    fn shard_messages_roundtrip_is_lossless(
        job_id in 0u64..u64::MAX,
        // out_h 1–8 × out_w 1–8 × maps 1–3 × shard_index 0–63, packed
        // so the shim reporter's tuple stays within `Debug`'s
        // 12-element cap.
        shape in 0usize..(8 * 8 * 3 * 64),
        floats in prop::collection::vec(-1.0e-3f64..1.0e-3, 24),
        weights in prop::collection::vec(-2.0f32..2.0, 27),
        pixels in prop::collection::vec(0.0f64..=1.0, 16),
        entry_kind in 0usize..3,
    ) {
        let out_h = shape % 8 + 1;
        let out_w = (shape / 8) % 8 + 1;
        let maps = (shape / 64) % 3 + 1;
        let shard_index = (shape / 192) as u32;
        let first_frame = job_id % 1_000_000;
        let report = ProgramReport {
            job_id,
            shard_index,
            first_frame,
            reports: (0..2)
                .map(|i| conv_frame_report(report_from(out_h, out_w, maps, &floats[i..])))
                .collect(),
        };
        let bytes = wire::encode(&WireMessage::ProgramReport(report.clone()));
        prop_assert_eq!(wire::decode(&bytes), Ok(WireMessage::ProgramReport(report)));

        let shard = ProgramShard {
            job_id,
            shard_index,
            shard_count: shard_index + 1,
            first_frame,
            first_epoch: first_frame.wrapping_mul(3),
            config_fingerprint: job_id ^ 0xABCD,
            entry: entry_from(entry_kind, &weights),
            program: LayerProgram::new(vec![Stage::Conv {
                k: 3,
                kernels: kernels_from(maps, 3, &weights),
            }])
            .unwrap(),
            frames: vec![frame_from(4, 4, &pixels)],
        };
        let bytes = wire::encode(&WireMessage::ProgramShard(shard.clone()));
        prop_assert_eq!(wire::decode(&bytes), Ok(WireMessage::ProgramShard(shard)));
    }

    /// Shards of multi-stage layer programs round-trip bit-exactly,
    /// covering every stage kind the schema can carry (conv, both
    /// quantisers, dense, activation) and every entry state.
    #[test]
    fn program_messages_roundtrip_is_lossless(
        job_id in 0u64..u64::MAX,
        // shard_index 0–63 × bits 1–8 × nframes 1–3 × entry 0–2,
        // packed (see `shard_messages_roundtrip_is_lossless`).
        packed in 0usize..(64 * 8 * 3 * 3),
        weights in prop::collection::vec(-2.0f32..2.0, 27),
        matrix in prop::collection::vec(-1.0f32..1.0, 12),
        pixels in prop::collection::vec(0.0f64..=1.0, 16),
    ) {
        let shard_index = (packed % 64) as u32;
        let bits = ((packed / 64) % 8 + 1) as u8;
        let nframes = (packed / 512) % 3 + 1;
        let program = LayerProgram::new(vec![
            Stage::Conv { k: 3, kernels: kernels_from(2, 3, &weights) },
            Stage::Quantize(QuantizeKind::Levels { bits }),
            Stage::Activation(ActivationKind::Relu),
            Stage::Quantize(QuantizeKind::Ternary),
            Stage::Dense { rows: 3, matrix: matrix.clone() },
            Stage::Activation(ActivationKind::Relu),
        ]).unwrap();
        let frames: Vec<Frame> = (0..nframes)
            .map(|i| frame_from(5, 5, &pixels[i % 8..]))
            .collect();
        let shard = ProgramShard {
            job_id,
            shard_index,
            shard_count: shard_index + 1,
            first_frame: job_id % 1_000_000,
            first_epoch: job_id % 7_000,
            config_fingerprint: job_id ^ 0x5A5A,
            entry: entry_from(packed / 1536, &weights),
            program,
            frames,
        };
        let bytes = wire::encode(&WireMessage::ProgramShard(shard.clone()));
        prop_assert_eq!(wire::decode(&bytes), Ok(WireMessage::ProgramShard(shard)));
    }

    /// The control messages — handshake pings/pongs and coded
    /// refusals — round-trip losslessly for arbitrary field values,
    /// including the fingerprint pair a mismatch refusal carries.
    #[test]
    fn control_messages_roundtrip_is_lossless(
        nonce in 0u64..u64::MAX,
        fingerprint in 0u64..u64::MAX,
        worker_fp in 0u64..u64::MAX,
        job_id in 0u64..u64::MAX,
        // shard_index 0–999 × mismatch × reason length 0–63, packed so
        // the shim reporter's tuple stays within `Debug`'s 12-element
        // cap (see `shard_messages_roundtrip_is_lossless`).
        packed in 0usize..(1000 * 2 * 64),
    ) {
        let shard_index = (packed % 1000) as u32;
        let mismatch = (packed / 1000) % 2 == 1;
        let reason_salt = packed / 2000;
        // The shim proptest has no string strategies; derive an ASCII
        // reason (length 0–63, varied content) from the sampled salt.
        let reason: String = (0..reason_salt)
            .map(|i| char::from(b' ' + ((i * 7 + reason_salt) % 95) as u8))
            .collect();
        let hs = Handshake { nonce, config_fingerprint: fingerprint };
        for message in [WireMessage::Ping(hs), WireMessage::Pong(hs)] {
            let bytes = wire::encode(&message);
            prop_assert_eq!(wire::decode(&bytes), Ok(message));
        }
        let refusal = ShardRefusal {
            job_id,
            shard_index,
            code: if mismatch {
                RefusalCode::FingerprintMismatch {
                    coordinator: fingerprint,
                    worker: worker_fp,
                }
            } else {
                RefusalCode::Other
            },
            reason,
        };
        let bytes = wire::encode(&WireMessage::Refusal(refusal.clone()));
        prop_assert_eq!(wire::decode(&bytes), Ok(WireMessage::Refusal(refusal)));
    }

    /// Any single-byte corruption of the 5-byte header, any truncation,
    /// and any trailing garbage produce a typed error — never a panic,
    /// never a silently different message.
    #[test]
    fn corrupted_envelopes_fail_with_typed_errors(
        job_id in 0u64..u64::MAX,
        version in 0u16..u16::MAX,
        cut_salt in 0usize..10_000,
        pixels in prop::collection::vec(0.0f64..=1.0, 16),
    ) {
        // Decoders accept exactly one stamp.
        prop_assume!(version != SCHEMA_VERSION);
        let shard = ProgramShard {
            job_id,
            shard_index: 0,
            shard_count: 1,
            first_frame: 0,
            first_epoch: 0,
            config_fingerprint: job_id,
            entry: FabricEntry::Cold,
            program: LayerProgram::new(vec![Stage::Conv {
                k: 3,
                kernels: kernels_from(1, 3, &[0.5, -0.5]),
            }])
            .unwrap(),
            frames: vec![frame_from(4, 4, &pixels)],
        };
        let bytes = wire::encode(&WireMessage::ProgramShard(shard));

        // Any other schema version.
        let mut versioned = bytes.clone();
        versioned[2..4].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            wire::decode(&versioned),
            Err(WireError::UnsupportedVersion { got: version })
        );

        // Truncation anywhere.
        let cut = cut_salt % bytes.len();
        prop_assert!(wire::decode(&bytes[..cut]).is_err());

        // Trailing bytes.
        let mut trailing = bytes.clone();
        trailing.push(0x00);
        prop_assert_eq!(wire::decode(&trailing), Err(WireError::TrailingBytes(1)));

        // A truncated length prefix on the framed stream is a decode
        // error, not a panic or a clean EOF.
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &bytes).unwrap();
        let cut = 1 + cut_salt % (framed.len() - 1);
        let mut partial = std::io::Cursor::new(framed[..cut].to_vec());
        prop_assert!(matches!(
            wire::read_frame(&mut partial),
            Err(WireError::Truncated { .. })
        ));
    }
}
