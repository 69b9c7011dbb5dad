//! Quickstart: capture a frame and run a first-layer convolution on the
//! optical in-sensor accelerator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use oisa::core::{OisaAccelerator, OisaConfig};
use oisa::sensor::Frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small OISA node: 16×16 ADC-less imager in front of a 4-bank OPC.
    let mut accel = OisaAccelerator::new(OisaConfig::small_test())?;

    // Synthesise a frame with a bright square on a dark background.
    let mut pixels = vec![0.08f64; 16 * 16];
    for y in 5..11 {
        for x in 5..11 {
            pixels[y * 16 + x] = 0.9;
        }
    }
    let frame = Frame::new(16, 16, pixels)?;

    // Two 3×3 kernels: an edge detector and a blur.
    let edge = vec![
        -1.0f32, -1.0, -1.0, //
        -1.0, 8.0, -1.0, //
        -1.0, -1.0, -1.0,
    ];
    let blur = vec![1.0f32 / 9.0; 9];

    let report = accel.convolve_frame(&frame, &[edge, blur], 3)?;

    println!("OISA quickstart");
    println!("===============");
    println!(
        "frame 16x16 -> {} feature maps of {}x{}",
        report.output.len(),
        report.out_h,
        report.out_w
    );
    println!(
        "mapping: {} pass(es), {} tuning iteration(s)/pass, {} MACs/cycle",
        report.plan.passes, report.plan.tuning_iterations_per_pass, report.plan.macs_per_cycle
    );
    println!("latency: {:.3}", report.timeline.total());
    println!("energy : {:.3}", report.energy.total());

    // The edge map peaks along the square's border.
    let edge_map = &report.output[0];
    let peak = edge_map.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let (peak_idx, _) = edge_map
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty map");
    println!(
        "edge response peak {:.2} at ({}, {})",
        peak,
        peak_idx / report.out_w,
        peak_idx % report.out_w
    );

    // Batched inference
    // -----------------
    // For sustained workloads, hand a whole batch to `convolve_frames`:
    // the engine stages each weight pass once for the batch (instead of
    // once per frame), forms each tuned arm's taps once, and spreads
    // (frame, pass, row-band) work items over a work-stealing scheduler
    // so no worker idles at a frame boundary. Every frame keys its own
    // noise epoch, which makes the reports bit-identical to calling
    // `convolve_frame_sequential` once per frame — batching buys wall
    // clock, never different physics.
    let batch: Vec<Frame> = (0..4)
        .map(|i| {
            let mut pixels = vec![0.08f64; 16 * 16];
            for y in 5..11 {
                for x in 5..11 {
                    // The square brightens frame by frame.
                    pixels[y * 16 + x] = 0.6 + 0.1 * f64::from(i);
                }
            }
            Frame::new(16, 16, pixels)
        })
        .collect::<Result<_, _>>()?;
    let sharpen = vec![0.0f32, -1.0, 0.0, -1.0, 5.0, -1.0, 0.0, -1.0, 0.0];
    let reports = accel.convolve_frames(&batch, std::slice::from_ref(&sharpen), 3)?;
    println!("\nbatched inference ({} frames)", reports.len());
    for (i, r) in reports.iter().enumerate() {
        let peak = r.output[0]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        println!(
            "  frame {i}: sharpen peak {peak:.2}, energy {:.3}",
            r.energy.total()
        );
    }

    // Serving
    // -------
    // `convolve_frames` wants the whole batch up front. When frames
    // instead *arrive over time* (the paper's deployment: a sensor
    // streaming at frame rate), wrap the accelerator in a
    // `ServingEngine`: submissions queue up, batches form when either
    // `max_batch` frames are pending or the oldest has waited
    // `deadline` (so light traffic is not starved), and a full queue
    // (`queue_depth`) pushes back on the producer. Batching still never
    // changes the physics — each frame keys its own noise epoch, so a
    // served report is bit-identical to running the same frame through
    // `convolve_frame_sequential` in submission order, whatever batch
    // shapes the queue happened to form.
    use oisa::core::serving::{ServingConfig, ServingEngine};
    let engine = ServingEngine::new(
        OisaAccelerator::new(OisaConfig::small_test())?,
        vec![sharpen],
        3,
        ServingConfig {
            max_batch: 4,                                  // throughput knob
            deadline: std::time::Duration::from_millis(2), // tail-latency knob
            queue_depth: 16,                               // backpressure knob
        },
    )?;
    let handles: Vec<_> = batch
        .iter()
        .map(|f| engine.submit(f.clone()).expect("submit"))
        .collect();
    println!("\nserved inference ({} frames)", handles.len());
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait()?;
        let peak = r.output[0]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        println!("  frame {i}: sharpen peak {peak:.2}");
    }
    let (_backend, stats) = engine.shutdown();
    println!(
        "  {} batches, queue wait p50 {:.0} us / p99 {:.0} us, {:.0} frames/s",
        stats.batches_run, stats.queue_wait_p50_us, stats.queue_wait_p99_us, stats.frames_per_sec
    );

    // Sharded execution
    // -----------------
    // The serving engine talks to a `ComputeBackend`, and so can you:
    // `LocalBackend` runs jobs on this host, `FleetSupervisor` splits
    // each job's frames into `(frame, epoch)` ranges, ships them to
    // workers as versioned wire messages and merges the reports
    // bit-identically to one sequential loop. Here the workers are
    // in-process; `examples/multi_node.rs` runs the same protocol over
    // real worker processes.
    use oisa::core::backend::{ComputeBackend, FleetSupervisor, SupervisorOptions};
    use oisa::core::wire::InferenceJob;
    let mut sharded = FleetSupervisor::in_process(OisaConfig::small_test(), 2)?;
    let job = InferenceJob {
        job_id: 1,
        k: 3,
        kernels: vec![vec![1.0f32 / 9.0; 9]],
        frames: batch.clone(),
    };
    let merged = sharded.run_job(&job)?;
    println!(
        "\nsharded inference: {} frames over {} workers -> {} reports",
        job.frames.len(),
        sharded.status().active,
        merged.len()
    );

    // Multi-host over TCP
    // -------------------
    // The same coordinator goes multi-host by swapping the transport:
    // `TcpWorker` is the accept-loop daemon (one per host — the
    // `oisa_worker` binary wraps it), `TcpTransport` dials it with a
    // connect timeout, a handshake that rejects mismatched configs at
    // connect time, and reconnect-with-backoff on broken pipes. Here
    // both daemons run as background threads on loopback; in a real
    // fleet they are `oisa_worker` processes on other machines:
    //
    //   host-a$ oisa_worker --addr 0.0.0.0:7401 --seed 2024
    //   host-b$ oisa_worker --addr 0.0.0.0:7401 --seed 2024
    //
    // Workers are stateless per shard, so a daemon lost mid-job costs
    // nothing: the coordinator re-runs its shard on a spare or on the
    // surviving daemons and the merge stays bit-identical (see
    // `examples/multi_node.rs --supervisor` for the drill). Only when
    // the last daemon is lost does `run_job` fail, with a typed
    // `OisaError::Transport` having consumed no coordinator state.
    use oisa::core::backend::{TcpTransport, TcpTransportConfig, TcpWorker};
    let config = OisaConfig::small_test();
    let endpoints: Vec<String> = (0..2)
        .map(|_| Ok(TcpWorker::bind(config, "127.0.0.1:0")?.spawn()?.endpoint()))
        .collect::<Result<_, oisa::core::OisaError>>()?;
    let workers = endpoints
        .iter()
        .map(|endpoint| {
            TcpTransport::connect(
                endpoint.clone(),
                config.fingerprint(),
                TcpTransportConfig::default(),
            )
            .map(|t| Box::new(t) as _)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut tcp_backend =
        FleetSupervisor::new(config, workers, Vec::new(), SupervisorOptions::default())?;
    let tcp_merged = tcp_backend.run_job(&job)?;
    assert_eq!(
        tcp_merged, merged,
        "TCP and in-process fleets merge bit-identically"
    );
    println!(
        "tcp inference    : {} frames over {} daemons ({}) -> bit-identical reports",
        job.frames.len(),
        endpoints.len(),
        endpoints.join(", ")
    );
    Ok(())
}
