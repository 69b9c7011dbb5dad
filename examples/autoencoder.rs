//! Autoencoder drill: a whole **layer program** — conv → ternary
//! quantize → dense → ReLU — runs end-to-end through the sharded
//! backend, and the coordinator decodes the latent codes.
//!
//! This is the paper's thing-centric split taken one layer further
//! than the conv examples: each worker executes the *entire encoder*
//! (the optical first layer, the VAM-style ternary quantizer and the
//! latent projection on the same fabric) per frame. The coordinator —
//! standing in for the off-chip processor — runs the float
//! **decoder** and reconstructs the quantized feature maps.
//!
//! The wire does not yet carry latents alone: each shard ships the
//! whole program (dense matrix included) and every frame's pixels as
//! f64, and each reply ships every frame's conv feature maps next to
//! its latents. The drill prints those bytes; the ROADMAP item "Ship
//! latents, not weights and feature maps" removes them.
//!
//! The drill verifies, and exits non-zero otherwise (making it a CI
//! check):
//!
//! 1. **Bit-identical sharding** — the per-frame reports merged from
//!    2+ workers equal [`run_reference`], one sequential forward on a
//!    single accelerator, bit for bit (outputs *and* stage reports).
//! 2. **Coordinator-side decode** — the latent codes decode into
//!    finite reconstructions of the encoder's quantized feature maps
//!    (the weights are untrained; the drill pins the pipeline, not
//!    the accuracy).
//!
//! ```sh
//! cargo run --release --example autoencoder          # in-process workers
//! cargo run --release --example autoencoder -- --tcp # loopback TCP daemons
//! ```

use oisa::core::backend::{
    ComputeBackend, FleetSupervisor, ShardTransport, SupervisorOptions, TcpTransport,
    TcpTransportConfig, TcpWorker,
};
use oisa::core::program::{run_reference, LayerProgram, QuantizeKind, Stage};
use oisa::core::wire::ProgramJob;
use oisa::core::OisaConfig;
use oisa::device::noise::NoiseConfig;
use oisa::nn::Tensor;
use oisa::sensor::Frame;
use std::time::Duration;

const IMG: usize = 16;
const FEATURES: usize = 3;
const LATENT: usize = 8;
const SEED: u64 = 77;
const WORKERS: usize = 3;

fn node_config() -> OisaConfig {
    OisaConfig::builder()
        .imager_dims(IMG, IMG)
        .opc_shape(4, 2, 10)
        .noise(NoiseConfig::paper_default())
        .seed(SEED)
        .build()
        .expect("deployment config validates")
}

/// Frame `t` of the sensor burst: a gradient with a moving bright band.
fn capture(t: usize) -> Frame {
    let pixels: Vec<f64> = (0..IMG * IMG)
        .map(|i| {
            let row = i / IMG;
            let base = 0.15 + 0.4 * (row as f64 / IMG as f64);
            if row % 5 == t % 5 {
                (base + 0.4).min(1.0)
            } else {
                base
            }
        })
        .collect();
    Frame::new(IMG, IMG, pixels).expect("valid frame")
}

fn build_backend(
    tcp: bool,
    config: OisaConfig,
) -> Result<FleetSupervisor, Box<dyn std::error::Error>> {
    if !tcp {
        return Ok(FleetSupervisor::in_process(config, WORKERS)?);
    }
    // Loopback TCP daemons: real sockets, the real wire path — the
    // multi-host deployment shape without process re-exec.
    let options = TcpTransportConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Some(Duration::from_secs(20)),
        attempts: 2,
        backoff: Duration::from_millis(50),
    };
    let daemons: Vec<_> = (0..WORKERS)
        .map(|_| TcpWorker::bind(config, "127.0.0.1:0")?.spawn())
        .collect::<Result<_, _>>()?;
    let workers: Vec<Box<dyn ShardTransport>> = daemons
        .iter()
        .map(|d| {
            TcpTransport::connect(d.endpoint(), config.fingerprint(), options)
                .map(|t| Box::new(t) as Box<dyn ShardTransport>)
        })
        .collect::<Result<_, _>>()?;
    // The daemon threads serve until their listener drops; leaking the
    // handles keeps them alive for the process lifetime of this drill.
    std::mem::forget(daemons);
    Ok(FleetSupervisor::new(
        config,
        workers,
        Vec::new(),
        SupervisorOptions::default(),
    )?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tcp = std::env::args().any(|a| a == "--tcp");
    run_drill(tcp)
}

fn run_drill(tcp: bool) -> Result<(), Box<dyn std::error::Error>> {
    let config = node_config();
    let program = LayerProgram::autoencoder(IMG, IMG, FEATURES, LATENT, SEED)?;
    let frames: Vec<Frame> = (0..8).map(capture).collect();
    let conv_out = FEATURES * (IMG - 2) * (IMG - 2);

    println!(
        "OISA autoencoder drill ({})",
        if tcp {
            "loopback TCP daemons"
        } else {
            "in-process workers"
        }
    );
    println!("================================================\n");
    println!(
        "encoder: conv {FEATURES}x3x3 -> ternary quantize -> dense {conv_out}->{LATENT} -> ReLU"
    );
    println!(
        "wire: per frame {} B of f64 pixels out, {} B of conv maps and {} B of latents back; \
         per shard the {} B dense matrix out\n",
        IMG * IMG * 8,
        conv_out * 4,
        LATENT * 4,
        conv_out * LATENT * 4
    );

    // Encode on the sharded fleet: every worker runs the whole encoder
    // per frame; no inter-stage tensor moves between workers.
    let mut backend = build_backend(tcp, config)?;
    let job = ProgramJob {
        job_id: 1,
        program: program.clone(),
        frames: frames.clone(),
    };
    let merged = backend.run_program(&job)?;

    // Acceptance check 1: bit-identical to one sequential forward.
    let oracle = run_reference(&config, 0, &program, &frames)?;
    assert_eq!(
        merged, oracle,
        "sharded encode must be bit-identical to the sequential forward"
    );
    println!(
        "encode: {} frames over {WORKERS} workers -> {} latent codes \
         (bit-identical to the sequential forward)",
        frames.len(),
        merged.len()
    );

    // Decode at the coordinator: a float dense layer (no optics, no
    // quantisers — the off-chip processor is a plain DNN host).
    let decoder = Tensor::he_normal(vec![LATENT, conv_out], LATENT, SEED.wrapping_add(2));
    // The reconstruction target is the encoder's own quantized feature
    // maps — the prefix of the program before the latent projection.
    let prefix = LayerProgram::new(match &program.stages[..2] {
        [conv @ Stage::Conv { .. }, quant @ Stage::Quantize(QuantizeKind::Ternary)] => {
            vec![conv.clone(), quant.clone()]
        }
        other => unreachable!("autoencoder() always starts conv->ternary, got {other:?}"),
    })?;
    let targets = run_reference(&config, 0, &prefix, &frames)?;

    let mut rms_sum = 0.0f64;
    for (report, target) in merged.iter().zip(&targets) {
        let latent = Tensor::from_vec(vec![1, LATENT], report.output.clone())?;
        let reconstructed = latent.matmul(&decoder)?;
        let rms = reconstructed
            .as_slice()
            .iter()
            .zip(target.output.iter())
            .map(|(r, t)| (f64::from(*r) - f64::from(*t)).powi(2))
            .sum::<f64>()
            .sqrt()
            / (conv_out as f64).sqrt();
        assert!(rms.is_finite(), "reconstruction must be finite");
        rms_sum += rms;
    }
    println!(
        "decode: {} reconstructions of {conv_out} quantized features each, \
         mean RMS error {:.4} (untrained weights — the drill pins the pipeline)",
        merged.len(),
        rms_sum / merged.len() as f64
    );

    println!("\ndeterminism: merged latent codes bit-identical to the sequential forward");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full drill with in-process workers (CI's distributed job
    /// runs the example binary itself for the TCP path).
    #[test]
    fn autoencoder_drill_runs_and_verifies() {
        run_drill(false).expect("autoencoder drill");
    }
}
