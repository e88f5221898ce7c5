//! Per-call costs of single layers, timed from outside in calibrated
//! batches (see [`crate::calib`]), each under its own span.

use std::path::Path;

use cedar_cache::RunCache;
use cedar_core::cache::{run_key, to_cached};
use cedar_core::{CacheMode, RunResult};
use cedar_hw::gmem::{GlobalMemorySystem, GmemEvent, GmemOutput};
use cedar_hw::module::MemoryModule;
use cedar_hw::net::DeltaNet;
use cedar_hw::{CeId, GlobalAddr, MemOp, NetConfig};
use cedar_obs::Counters;
use cedar_rtl::{ClaimStep, IterClaimer, RtlWords};
use cedar_serve::CampaignSpec;
use cedar_sim::{Cycles, EventQueue, Outbox, SplitMix64};
use std::hint::black_box;

use crate::calib::{per_op, PerOp};
use crate::metrics::Report;
use crate::trace::{SpanId, Tracer};

/// Samples per calibrated timer.
const SAMPLES: usize = 31;

/// One spec the workload sent (or, for the campaign, one grid cell),
/// with its request body and the run it names.
pub struct Served<'a> {
    pub body: &'a str,
    pub spec: &'a CampaignSpec,
    pub result: &'a RunResult,
}

fn note(name: &str, r: PerOp) {
    println!(
        "  timer {name:<22} {:>12.1} ns/op  batch {:>7}  samples {}",
        r.ns, r.batch, r.samples
    );
}

/// Hold times drawn from a `queue.hold.p2_NN` histogram: bucket 0 is
/// a zero hold, bucket k ≥ 1 covers [2^(k-1), 2^k) cycles.
pub fn holds_from(counters: &Counters, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let weights: Vec<u64> = (0..16)
        .map(|k| counters.get(&format!("queue.hold.p2_{k:02}")))
        .collect();
    let total: u64 = weights.iter().sum();
    if total == 0 {
        // No simulation to replay: a flat 1..=64-cycle spread.
        return (0..n).map(|_| 1 + rng.next_below(64)).collect();
    }
    (0..n)
        .map(|_| {
            let mut pick = rng.next_below(total);
            let k = weights
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("pick is below the total");
            if k == 0 {
                0
            } else {
                let lo = 1u64 << (k - 1);
                lo + rng.next_below(lo)
            }
        })
        .collect()
}

/// Times `schedule` + `pop` on the simulator's queue at `depth`
/// pending events with `holds` as the hold distribution.
fn hold_ns(holds: &[u64], depth: usize) -> PerOp {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for (i, &h) in holds.iter().cycle().take(depth).enumerate() {
        q.schedule(Cycles(h), i as u64);
    }
    per_op(SAMPLES, |i| {
        let (t, v) = q.pop().expect("the queue stays at depth");
        q.schedule(t + Cycles(holds[i as usize % holds.len()]), black_box(v));
    })
}

/// A closed-loop packet storm through the global memory system: 32
/// CEs, one read outstanding each, re-issued on delivery. Per event,
/// queue included.
fn gmem_event_ns() -> PerOp {
    let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
    let mut q: EventQueue<GmemEvent> = EventQueue::new();
    let mut out = Outbox::new();
    let mut rng = SplitMix64::new(0x6D3E);
    for ce in 0..32u16 {
        let addr = GlobalAddr(rng.next_below(1 << 20) * 8);
        sys.inject(CeId(ce), addr, MemOp::Read, Cycles(0), &mut out);
        out.flush_into(Cycles(0), &mut q);
    }
    per_op(SAMPLES, |_| {
        let (now, ev) = q.pop().expect("the storm never drains");
        if let Some(GmemOutput::Deliver(resp)) = sys.handle(ev, now, &mut out) {
            let addr = GlobalAddr(rng.next_below(1 << 20) * 8);
            sys.inject(resp.ce, addr, MemOp::Read, now, &mut out);
        }
        out.flush_into(now, &mut q);
    })
}

fn module_serve_ns() -> PerOp {
    let mut m = MemoryModule::new(Cycles(4), Cycles(8));
    per_op(SAMPLES, |i| {
        black_box(m.serve(i % 64, MemOp::Read, Cycles(2 * i)));
    })
}

fn net_transit_ns() -> PerOp {
    let mut net = DeltaNet::new(&NetConfig::cedar());
    per_op(SAMPLES, |t| {
        let src = (t % 32) as u16;
        let dst = ((t * 7) % 32) as u16;
        let mid = net.transit_stage1(src, dst, Cycles(t));
        black_box(net.transit_stage2(dst, mid));
    })
}

/// One iteration claimed through the self-scheduling protocol, against
/// a stand-in memory that answers each word access at once. The loop
/// restarts when its iterations run out.
fn claim_ns() -> PerOp {
    let w = RtlWords::cedar();
    let mut claimer = IterClaimer::new(w, 4096, Cycles(150));
    let (mut index, mut lock) = (0u64, 0u64);
    per_op(SAMPLES, |_| {
        let mut step = claimer.begin();
        while let ClaimStep::Issue(wi) = step {
            let v = match wi.op {
                MemOp::TestAndSet if wi.addr == w.lock => std::mem::replace(&mut lock, 1),
                MemOp::Unset if wi.addr == w.lock => {
                    lock = 0;
                    0
                }
                MemOp::Read if wi.addr != w.lock => index,
                MemOp::FetchAdd(d) if wi.addr != w.lock => {
                    let old = index;
                    index = index.wrapping_add_signed(d);
                    old
                }
                _ => 0,
            };
            step = claimer.on_value(black_box(v));
        }
        if matches!(step, ClaimStep::Exhausted) {
            index = 0;
        }
        black_box(step);
    })
}

/// Times every layer's calls and records the per-call costs in
/// `report`. `counters` is the rollup of the runs the workload
/// simulated (for the queue's hold distribution and depth), `served`
/// the workload's specs with their runs, `scratch` a directory for a
/// run cache of the benchmark's own.
pub fn measure(
    report: &mut Report,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    counters: &Counters,
    served: &[Served<'_>],
    scratch: &Path,
    seed: u64,
) {
    println!("per-call timers (calibrated to >= 10 us per sample):");
    let mut rng = SplitMix64::new(seed ^ 0x401D);
    let holds = holds_from(counters, 4096, &mut rng);
    let depth = (counters.get("queue.pending.peak") as usize).clamp(64, 1 << 16);
    let hold = tracer.time("sim.hold", parent, |_, _| hold_ns(&holds, depth));
    note("sim.hold", hold);
    report.set("sim.hold_ns", hold.ns);

    let storm = tracer.time("hw.gmem_storm", parent, |_, _| gmem_event_ns());
    note("hw.gmem_storm", storm);
    // The storm's own queue traffic is one schedule + pop per event.
    report.set("hw.gmem.event_ns", (storm.ns - hold.ns).max(0.0));
    let module = tracer.time("hw.module_serve", parent, |_, _| module_serve_ns());
    note("hw.module_serve", module);
    report.set("hw.module.serve_ns", module.ns);
    let transit = tracer.time("hw.net_transit", parent, |_, _| net_transit_ns());
    note("hw.net_transit", transit);
    report.set("hw.net.transit_ns", transit.ns);
    let claim = tracer.time("rtl.claim", parent, |_, _| claim_ns());
    note("rtl.claim", claim);
    report.set("rtl.claim_ns", claim.ns);

    if served.is_empty() {
        return;
    }
    let n = served.len() as u64;
    let at = |i: u64| &served[(i % n) as usize];

    let key = tracer.time("cache.run_key", parent, |_, _| {
        per_op(SAMPLES, |i| {
            let s = at(i).spec;
            black_box(run_key(&s.workload(), &s.sim_config()));
        })
    });
    note("cache.run_key", key);
    report.set("cache.key_us", key.ns / 1e3);

    let keys: Vec<_> = served
        .iter()
        .map(|s| run_key(&s.spec.workload(), &s.spec.sim_config()))
        .collect();
    let records: Vec<_> = served.iter().map(|s| to_cached(s.result)).collect();
    let dir = scratch.join("layer-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::open(&dir, CacheMode::ReadWrite)
        .expect("scratch run cache opens")
        .with_hot_capacity(256);
    let put = tracer.time("cache.put", parent, |_, _| {
        per_op(SAMPLES, |i| {
            let j = (i % n) as usize;
            cache.put(&keys[j], &records[j]);
        })
    });
    note("cache.put", put);
    report.set("cache.put_us", put.ns / 1e3);
    let get = tracer.time("cache.get", parent, |_, _| {
        per_op(SAMPLES, |i| {
            black_box(cache.get_traced(&keys[(i % n) as usize]));
        })
    });
    note("cache.get", get);
    report.set("cache.get_us", get.ns / 1e3);
    let _ = std::fs::remove_dir_all(&dir);

    let parse = tracer.time("serve.spec_parse", parent, |_, _| {
        per_op(SAMPLES, |i| {
            black_box(CampaignSpec::from_json(at(i).body).expect("workload specs parse"));
        })
    });
    note("serve.spec_parse", parse);
    report.set("serve.spec_parse_us", parse.ns / 1e3);
    let render = tracer.time("serve.render", parent, |_, _| {
        per_op(SAMPLES, |i| {
            let s = at(i);
            black_box(cedar_serve::reply::render(s.spec, s.result));
        })
    });
    note("serve.render", render);
    report.set("serve.render_us", render.ns / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_follow_the_histogram_buckets() {
        let mut c = Counters::new();
        c.add("queue.hold.p2_00", 1);
        c.add("queue.hold.p2_04", 3);
        let mut rng = SplitMix64::new(1);
        let h = holds_from(&c, 4000, &mut rng);
        assert!(h.iter().all(|&x| x == 0 || (8..16).contains(&x)));
        let zeros = h.iter().filter(|&&x| x == 0).count();
        assert!((800..1200).contains(&zeros), "{zeros}");
    }
}
