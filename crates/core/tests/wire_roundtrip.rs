//! Wire-codec roundtrip suite, written to run under Miri as well as
//! natively: pure in-memory encode/decode plus the length-prefixed
//! framing layer over a `Cursor`, no sockets, threads or clocks. CI's
//! `miri` job interprets exactly this test to check the byte-twiddling
//! paths (manual LE packing, `take().try_into()` slicing) for
//! undefined behavior, not just wrong answers.

use std::io::Cursor;

use oisa_core::accelerator::{EnergyReport, OisaConfig};
use oisa_core::controller::Timeline;
use oisa_core::mlp::MatVecReport;
use oisa_core::program::{LayerProgram, ProgramFrameReport, StageReport};
use oisa_core::wire::{
    decode, encode, read_frame, receive, send, write_frame, ConfigPush, FabricEntry, Handshake,
    ProgramReport, ProgramShard, RefusalCode, ShardRefusal, WireMessage,
};
use oisa_core::{ConvolutionReport, MappingPlan};
use oisa_sensor::frame::Frame;
use oisa_units::{Joule, Second};

fn sample_shard(entry: FabricEntry) -> ProgramShard {
    ProgramShard {
        job_id: 11,
        shard_index: 2,
        shard_count: 4,
        first_frame: 6,
        first_epoch: 106,
        config_fingerprint: 0x00C0_FFEE,
        entry,
        program: LayerProgram::autoencoder(5, 3, 2, 2, 7).expect("valid program"),
        frames: vec![Frame::constant(5, 3, 0.5).expect("valid frame")],
    }
}

fn sample_conv() -> ConvolutionReport {
    ConvolutionReport {
        output: vec![vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE]],
        out_h: 2,
        out_w: 2,
        plan: MappingPlan {
            kernel_size_class: 3,
            slots_per_pass: 20,
            passes: 1,
            planes_last_pass: 2,
            parallel_positions: 10,
            cycles_per_pass: 4,
            rings_per_pass: 18,
            tuning_iterations_per_pass: 2,
            macs_per_cycle: 90,
        },
        timeline: Timeline {
            capture: Second::new(5e-5),
            mapping: Second::new(2e-9),
            compute: Second::new(2.232e-10),
            transmit: Second::new(4e-10),
            control: Second::new(4e-9),
        },
        energy: EnergyReport {
            sensing: Joule::new(1.25e-9),
            encoding: Joule::new(3.5e-12),
            tuning: Joule::new(7.75e-12),
            compute: Joule::new(9.5e-13),
            aggregation: Joule::new(0.0),
            memory: Joule::new(1.5e-12),
        },
    }
}

fn sample_report(frame: ProgramFrameReport) -> ProgramReport {
    ProgramReport {
        job_id: 11,
        shard_index: 2,
        first_frame: 6,
        reports: vec![frame],
    }
}

fn all_messages() -> Vec<WireMessage> {
    let conv = sample_conv();
    vec![
        WireMessage::ProgramShard(sample_shard(FabricEntry::Cold)),
        WireMessage::ProgramShard(sample_shard(FabricEntry::WarmSelf)),
        WireMessage::ProgramShard(sample_shard(FabricEntry::Warm {
            k: 5,
            kernels: vec![vec![0.125f32; 25]],
        })),
        // A conv job's report: the output travels as the maps alone.
        WireMessage::ProgramReport(sample_report(ProgramFrameReport {
            output: conv.output.concat(),
            stages: vec![StageReport::Conv(conv.clone())],
        })),
        WireMessage::ProgramReport(sample_report(ProgramFrameReport {
            stages: vec![
                StageReport::Conv(conv),
                StageReport::Quantize,
                StageReport::Dense(MatVecReport {
                    output: vec![0.5f32, -1.25],
                    chunks: 6,
                    energy: Joule::new(3.5e-12),
                    latency: Second::new(2e-10),
                }),
                StageReport::Activation,
            ],
            output: vec![0.5f32, 0.0],
        })),
        WireMessage::Refusal(ShardRefusal {
            job_id: 9,
            shard_index: 0,
            code: RefusalCode::FingerprintMismatch {
                coordinator: 0x1,
                worker: 0x2,
            },
            reason: "fingerprint mismatch".into(),
        }),
        WireMessage::Ping(Handshake {
            nonce: 0xFEED_F00D,
            config_fingerprint: 0xABCD,
        }),
        WireMessage::Pong(Handshake {
            nonce: u64::MAX,
            config_fingerprint: 0,
        }),
        WireMessage::Configure(ConfigPush {
            nonce: 41,
            config: OisaConfig::small_test(),
        }),
        WireMessage::ConfigureAck(Handshake {
            nonce: 41,
            config_fingerprint: 0xBEEF,
        }),
    ]
}

#[test]
fn every_message_round_trips_through_encode_decode() {
    for message in all_messages() {
        let bytes = encode(&message);
        assert_eq!(decode(&bytes).expect("decodes"), message);
    }
}

#[test]
fn framed_stream_round_trips_in_order() {
    let messages = all_messages();
    let mut buffer = Vec::new();
    for message in &messages {
        send(&mut buffer, message).expect("send into Vec");
    }
    let mut cursor = Cursor::new(buffer);
    for expected in &messages {
        let got = receive(&mut cursor).expect("receive").expect("a frame");
        assert_eq!(&got, expected);
    }
    // Clean end-of-stream is `Ok(None)`, not an error.
    assert!(receive(&mut cursor).expect("clean EOF").is_none());
}

#[test]
fn raw_frame_layer_round_trips_arbitrary_payloads() {
    let payloads: [&[u8]; 4] = [b"", b"\x00", b"abc", &[0xFF; 300]];
    let mut buffer = Vec::new();
    for payload in payloads {
        write_frame(&mut buffer, payload).expect("write frame");
    }
    let mut cursor = Cursor::new(buffer);
    for payload in payloads {
        let got = read_frame(&mut cursor)
            .expect("read frame")
            .expect("a frame");
        assert_eq!(got, payload);
    }
    assert!(read_frame(&mut cursor).expect("clean EOF").is_none());
}

#[test]
fn truncated_payloads_error_without_panicking() {
    let bytes = encode(&WireMessage::ProgramShard(sample_shard(
        FabricEntry::Warm {
            k: 3,
            kernels: vec![vec![0.5f32; 9]],
        },
    )));
    // Every short prefix near the header plus a spread through the
    // body must yield a typed error, never a panic or wraparound. The
    // stride keeps the case count Miri-friendly.
    let stride = (bytes.len() / 32).max(1);
    for len in (0..bytes.len()).step_by(stride) {
        assert!(
            decode(&bytes[..len]).is_err(),
            "truncation to {len} bytes decoded successfully"
        );
    }
}

#[test]
fn corrupt_tags_error_without_panicking() {
    let bytes = encode(&WireMessage::Ping(Handshake {
        nonce: 1,
        config_fingerprint: 2,
    }));
    for byte in 0..bytes.len().min(8) {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0xA5;
        // Either a typed error or a decode to *some* message — the
        // point is no panic and no UB under Miri.
        let _ = decode(&corrupt);
    }
}
