//! Isolated probes of single layers, run at the end of a traced run.
//!
//! A workload probes only the layers it exercises; every other probe
//! metric reads 0 there. Probes use fixed inputs (no seed): they compare
//! two versions of one layer, the workloads compare two versions of the
//! system.

use crate::engines::{self, Engine};
use crate::gen::{self, Family, Kind};
use crate::metrics::Metrics;
use crate::stack::{self, ServeStack, CALL_TIMEOUT};
use crate::stats;
use qfw::cache::CacheConfig;
use qfw::{BackendSpec, Planner, QfwResult, ResultCache, SelectorContext};
use qfw_circuit::{Circuit, ContentHash, Gate};
use qfw_compile::OptLevel;
use qfw_hpc::topology::CoreId;
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_num::rng::AliasSampler;
use qfw_num::Rng;
use qfw_obs::Obs;
use qfw_sim_sv::{FusionLevel, StateVector, SvConfig, SvSimulator, SweepPoint};
use qfw_workloads::{qaoa_ansatz, Qubo};
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `reps` calls, in the unit `scale` converts seconds to.
fn timed<R>(reps: usize, scale: f64, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * scale
        })
        .collect();
    stats::median(&samples)
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

pub fn for_workload(name: &str, m: &mut Metrics) {
    match name {
        "serve_cold" => {
            front_door(m);
            compile_and_hash(m);
            cache(m);
            sampler(m, 12, "num.sample_us.12q");
            obs_overhead(m);
        }
        "serve_hot" => {
            front_door(m);
            compile_and_hash(m);
            cache(m);
        }
        "engine_sv" => {
            sim_sv(m);
            sampler(m, 20, "num.sample_us.20q");
        }
        "dist_sv" => {
            dist(m);
            hpc(m);
        }
        "dqaoa" => {
            rpc(m);
            sweep(m);
        }
        "auto_mix" => {
            front_door(m);
            planner_and_engines(m);
        }
        other => unreachable!("no probes for workload {other}"),
    }
}

fn kind(name: &'static str, family: Family, qubits: usize) -> Kind {
    Kind::new(name, family, qubits, 1024, BackendSpec::of("nwqsim", "cpu"))
}

/// `stats` over `Connection::call`: a request that does no work, so what
/// is left is the transport.
fn front_door(m: &mut Metrics) {
    let stack = ServeStack::launch(&Obs::disabled());
    let conn = stack.ingress.connect();
    let rtt = timed(2000, US, || {
        conn.call::<(), qfw_sched::SchedStats>("stats", &(), CALL_TIMEOUT)
            .expect("stats call")
    });
    m.set("defw.ingress_rtt_us", rtt);
    stack.shutdown();
}

/// `ping` over the session's DEFw hub to the QPM service.
fn rpc(m: &mut Metrics) {
    let session = stack::launch_session(&Obs::disabled());
    let client = session.defw().client();
    let service = session.qpm_services()[0].to_string();
    let rtt = timed(2000, US, || {
        client
            .call::<(), String>(&service, "ping", &(), CALL_TIMEOUT)
            .expect("ping call")
    });
    m.set("defw.rpc_rtt_us", rtt);
    session.teardown();
}

/// Parse alone, gate counts through O2, and the canonical hash, on the
/// QAOA-12 text the serve mixes carry.
fn compile_and_hash(m: &mut Metrics) {
    let text = gen::qasm3(&gen::circuit(&kind("qaoa12", Family::Qaoa(1), 12), 0.0));
    m.set(
        "compile.parse_us",
        timed(200, US, || qfw_compile::parse(&text).expect("parses")),
    );
    let ingested =
        qfw_compile::ingest_qasm3(&text, OptLevel::O2, &Obs::disabled()).expect("ingests");
    m.set("compile.gates_in", ingested.stats.gates_before as f64);
    m.set("compile.gates_out", ingested.stats.gates_after as f64);
    m.set(
        "circuit.hash_us",
        timed(200, US, || qfw_circuit::canonical_hash(&ingested.qfwasm)),
    );
}

/// Insert into a result cache that is already at capacity, so every
/// insert also evicts.
fn cache(m: &mut Metrics) {
    let cfg = CacheConfig::default();
    let cache = ResultCache::new(cfg, &Obs::disabled());
    let mut result = QfwResult::new("nwqsim", "cpu", 256);
    for i in 0..200usize {
        result.counts.insert(format!("{i:012b}"), 1);
    }
    let result = Arc::new(result);
    let key = |i: u64| ContentHash::of_bytes(b"qfw-benchmark/cache-probe").fold_u64(i);
    for i in 0..2 * cfg.capacity as u64 {
        cache.insert(key(i), Arc::clone(&result));
    }
    let mut next = 2 * cfg.capacity as u64;
    m.set(
        "cache.insert_full_us",
        timed(4000, US, || {
            next += 1;
            cache.insert(key(next), Arc::clone(&result))
        }),
    );
}

/// Alias table build plus 1024 draws over a `2^n` distribution: what the
/// sampler costs a job after its gates.
fn sampler(m: &mut Metrics, n: usize, metric: &'static str) {
    let mut rng = Rng::seed_from(17);
    let weights: Vec<f64> = (0..1usize << n).map(|_| rng.next_f64()).collect();
    let reps = if n >= 18 { 5 } else { 200 };
    m.set(
        metric,
        timed(reps, US, || {
            let table = AliasSampler::new(&weights);
            let mut rng = Rng::seed_from(5);
            (0..1024).map(|_| table.sample(&mut rng)).sum::<usize>()
        }),
    );
}

/// `serve_cold`'s median latency with the program's own observability on,
/// as a share over the same loop with it off.
fn obs_overhead(m: &mut Metrics) {
    let kinds = [kind("qaoa10", Family::Qaoa(1), 10)];
    let p50 = |obs: Obs, round: usize| {
        let stack = ServeStack::launch(&obs);
        let conn = stack.ingress.connect();
        let mut lat: Vec<f64> = (0..600)
            .map(|i| {
                let job = gen::job(&kinds, 23, round + i, 0);
                let t0 = Instant::now();
                stack::serve(&conn, &job.envelope).expect("probe job");
                t0.elapsed().as_secs_f64()
            })
            .collect();
        stack.shutdown();
        stats::sort(&mut lat);
        stats::percentile(&lat, 50)
    };
    let off = p50(Obs::disabled(), 0);
    let on = p50(Obs::wall(), 1000);
    m.set("obs.on_overhead_share", on / off - 1.0);
}

/// Serial and rayon-shim runs of the three dense families at the width
/// `engine_sv` uses, and a memory-bound sweep at 22 qubits.
fn sim_sv(m: &mut Metrics) {
    let mut speedups = Vec::new();
    for (name, family, serial_ms, rayon_ms) in [
        (
            "qaoa18",
            Family::Qaoa(2),
            "sim_sv.qaoa.serial_ms",
            "sim_sv.qaoa.rayon_ms",
        ),
        (
            "ham18",
            Family::Ham,
            "sim_sv.ham.serial_ms",
            "sim_sv.ham.rayon_ms",
        ),
        (
            "tfim18",
            Family::Tfim,
            "sim_sv.tfim.serial_ms",
            "sim_sv.tfim.rayon_ms",
        ),
    ] {
        let circuit = gen::circuit(&kind(name, family, 18), 0.0);
        let run = |rayon| {
            let engine = engines::dense(rayon, FusionLevel::Full);
            timed(3, MS, || engine.run(&circuit, 1024, 9))
        };
        let (serial, rayon) = (run(false), run(true));
        m.set(serial_ms, serial);
        m.set(rayon_ms, rayon);
        speedups.push((serial / rayon).ln());
        if family == Family::Tfim {
            let out = engines::dense(false, FusionLevel::Full).run(&circuit, 1024, 9);
            let gate_s = out.gate_time.as_secs_f64();
            m.set("sim_sv.gate_ms", gate_s * MS);
            m.set("sim_sv.sample_ms", out.sample_time.as_secs_f64() * MS);
            m.set("sim_sv.fused_gates", out.gates_applied as f64);
            m.set(
                "sim_sv.amp_updates_per_s",
                out.gates_applied as f64 * (1u64 << 18) as f64 / gate_s,
            );
        }
    }
    m.set(
        "sim_sv.rayon_speedup",
        (speedups.iter().sum::<f64>() / speedups.len() as f64).exp(),
    );
    // One H per qubit over a 64 MiB state: each gate reads and writes every
    // amplitude once. Bytes are computed from the state size, not measured.
    let n = 22;
    let mut state = StateVector::zero(n);
    let t0 = Instant::now();
    for q in 0..n {
        state.apply(&Gate::H(q), false);
    }
    let bytes = n as f64 * 2.0 * 16.0 * (1u64 << n) as f64;
    m.set(
        "sim_sv.apply_gbps_22q",
        bytes / t0.elapsed().as_secs_f64() / 1e9,
    );
    std::hint::black_box(state);
}

/// Compile-once / bind-many on the QAOA-12 skeleton `dqaoa` re-binds.
fn sweep(m: &mut Metrics) {
    let ansatz = qaoa_ansatz(&Qubo::metamaterial(12, 3, 31), 1);
    let engine = SvSimulator::new(SvConfig::default());
    m.set(
        "sweep.compile_ms",
        timed(20, MS, || {
            engine
                .compile_sweep(&ansatz)
                .expect("terminal measurements")
        }),
    );
    let plan = engine
        .compile_sweep(&ansatz)
        .expect("terminal measurements");
    let point = |i: usize| SweepPoint {
        params: vec![0.1 + 0.01 * i as f64, 0.2],
        shots: 512,
        seed: i as u64,
    };
    let points: Vec<SweepPoint> = (0..32).map(point).collect();
    m.set(
        "sweep.point_us",
        timed(10, US, || {
            engine.run_plan_traced(&plan, &points, &Obs::disabled())
        }) / 32.0,
    );
    let mut i = 100;
    m.set(
        "sweep.bind1_us",
        timed(200, US, || {
            i += 1;
            plan.run(&point(i))
        }),
    );
}

/// TFIM-18 on one rank and on two, with the exchange tallies.
fn dist(m: &mut Metrics) {
    let circuit = gen::circuit(&kind("tfim18", Family::Tfim, 18), 0.0);
    let r1 = timed(3, MS, || engines::run_ranks(1, &circuit, 1024, 9, None));
    let r2 = timed(3, MS, || engines::run_ranks(2, &circuit, 1024, 9, None));
    let (out, tallies) = engines::run_ranks(2, &circuit, 1024, 9, None);
    m.set("dist.r1_ms", r1);
    m.set("dist.r2_ms", r2);
    m.set("dist.speedup_2r", r1 / r2);
    m.set("dist.exchanges", tallies.exchanges as f64);
    m.set("dist.bytes", tallies.bytes as f64);
    m.set("dist.sample_ms", out.sample_time.as_secs_f64() * MS);
}

/// Rank spawn, barrier and a 64 MiB personalised exchange between two ranks.
fn hpc(m: &mut Metrics) {
    let dvm = Dvm::new(&ClusterSpec::test(3));
    let placement = || {
        (0..2)
            .map(|core| CoreId { node: 1, core })
            .collect::<Vec<_>>()
    };
    m.set(
        "hpc.spawn2_us",
        timed(200, US, || {
            dvm.spawn_placed(placement(), |ctx| ctx.rank()).wait()
        }),
    );
    let barrier_us = dvm
        .spawn_placed(placement(), |mut ctx| timed(2000, US, || ctx.barrier()))
        .wait();
    m.set("hpc.barrier_us", stats::median(&barrier_us));
    // Each rank sends 32 MiB to the other: 64 MiB cross the world per call.
    // Payloads are written before the clock starts, so pages are resident.
    let exchange_ms = dvm
        .spawn_placed(placement(), |mut ctx| {
            let peer = 1 - ctx.rank();
            let mut payloads: Vec<Vec<u64>> = (0..5).map(|i| vec![i + 1; 4 << 20]).collect();
            timed(5, MS, || {
                let payload = payloads.pop().expect("one payload per repetition");
                ctx.sparse_alltoallv(vec![(peer, payload)])
            })
        })
        .wait();
    m.set("hpc.alltoallv_ms_per_64mib", stats::median(&exchange_ms));
}

/// The planner alone, and each non-dense engine `auto_mix` lands on,
/// called directly on that workload's circuits.
fn planner_and_engines(m: &mut Metrics) {
    let qaoa14 = gen::circuit(&kind("qaoa14", Family::Qaoa(2), 14), 0.0);
    let planner = Planner::default();
    m.set(
        "planner.plan_us",
        timed(200, US, || {
            planner.plan(&qaoa14, 256, SelectorContext::default())
        }),
    );
    let run = |engine: Engine, circuit: &Circuit, reps| {
        timed(reps, MS, || {
            engine.run(circuit, 256, 9).expect("engine run")
        })
    };
    let mps = |chi_max, trunc_eps| Engine::Mps { chi_max, trunc_eps };
    let tfim20 = gen::circuit(&kind("tfim20", Family::Tfim, 20), 0.0);
    m.set("sim_mps.tfim20_ms", run(mps(64, 1e-12), &tfim20, 20));
    let ghz24 = gen::circuit(&kind("ghz24", Family::Ghz, 24), 0.0);
    m.set("sim_stab.ghz24_ms", run(Engine::Stab, &ghz24, 20));
    let qaoa12 = gen::circuit(&kind("qaoa12", Family::Qaoa(1), 12), 0.0);
    m.set("sim_tn.exatn_qaoa12_ms", run(mps(32, 1e-10), &qaoa12, 20));
    m.set("sim_tn.qtensor_qaoa12_ms", run(Engine::Tn, &qaoa12, 20));
    let cliff14 = gen::circuit(&kind("cliff14", Family::CliffordPrefix(32), 14), 0.0);
    let (seam, _) = qfw_circuit::analysis::clifford_prefix_len(&cliff14);
    m.set(
        "partition.cliff14_ms",
        run(Engine::Partition { rayon: false, seam }, &cliff14, 20),
    );
}
