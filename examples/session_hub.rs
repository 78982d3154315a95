//! The sharded session hub: many concurrent streaming QRS sessions of
//! mixed configurations behind one client API, with backpressure, live
//! snapshot/restore, and per-shard metrics.
//!
//! Every session's event stream is bit-identical to a solo
//! [`StreamingQrsDetector`] run of the same configuration — the hub packs
//! sessions into SIMD lane banks purely as an execution strategy.
//!
//! ```sh
//! cargo run --release --example session_hub
//! ```

use ecg::noise::NoiseConfig;
use ecg::synth::{EcgSynthesizer, SynthConfig};
use xbiosip_repro::prelude::*;

fn main() {
    // A small fleet of wearables: three designs from the paper's palette.
    let configs = [
        PipelineConfig::exact().with_footprint(Footprint::Bounded),
        PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]).with_footprint(Footprint::Bounded),
    ];
    let signals: Vec<Vec<i32>> = (0..6)
        .map(|i| {
            EcgSynthesizer::new(SynthConfig {
                name: "hub-demo",
                n_samples: 4_000,
                heart_rate_bpm: 62.0 + 7.0 * i as f64,
                noise: NoiseConfig::ambulatory(),
                seed: 100 + i as u64,
                ..SynthConfig::default()
            })
            .synthesize()
            .samples()
            .to_vec()
        })
        .collect();

    let mut hub = SessionHub::new(ServiceConfig::default().with_shards(2));
    let client = hub.client();
    let events = hub.take_events().expect("events taken once");

    // Open one session per signal, round-robin over the config palette.
    let ids: Vec<SessionId> = (0..signals.len())
        .map(|i| client.open(configs[i % configs.len()]).expect("capacity"))
        .collect();
    println!("opened {} sessions across 2 shards", ids.len());

    // Replay interleaved 100 ms chunks; `Busy` means the watermark is
    // protecting the workers — drain and retry.
    let mut at = vec![0usize; ids.len()];
    let mut done = 0;
    while done < ids.len() {
        done = 0;
        for (i, id) in ids.iter().enumerate() {
            let signal = &signals[i];
            if at[i] >= signal.len() {
                done += 1;
                continue;
            }
            let chunk = &signal[at[i]..(at[i] + 20).min(signal.len())];
            match client.push(*id, chunk) {
                Ok(()) => at[i] += chunk.len(),
                Err(ServiceError::Busy) => std::thread::yield_now(),
                Err(e) => panic!("push failed: {e}"),
            }
        }
    }

    // Freeze session 0 mid-flight and thaw it as a brand-new session — the
    // snapshot codec makes the migration bit-invisible.
    let blob = client.snapshot(ids[0]).expect("live session snapshots");
    let twin = client
        .restore(configs[0], &blob)
        .expect("snapshot round-trip");
    println!(
        "snapshotted {} into {} bytes; restored as {}",
        ids[0],
        blob.len(),
        twin
    );

    for id in ids.iter().chain([&twin]) {
        client.close(*id).expect("close");
    }
    let metrics = hub.shutdown();

    let mut peaks = 0usize;
    let mut closed = 0usize;
    for ev in events.try_iter() {
        match ev.output {
            SessionOutput::Event(StreamEvent::RPeak { .. }) => peaks += 1,
            SessionOutput::Event(StreamEvent::Omitted(_)) => {}
            SessionOutput::Closed(_) => closed += 1,
        }
    }
    println!(
        "hub drained: {} samples in, {} R-peaks out, {closed} sessions closed cleanly",
        metrics.samples_in(),
        peaks
    );
    println!(
        "lane occupancy at peak: {} lanes; p99 ingest latency <= {} us",
        metrics.shards.iter().map(|s| s.lanes_total).sum::<usize>(),
        metrics.latency_quantile_us(990).unwrap_or(0)
    );
}
