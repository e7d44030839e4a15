//! Direct engine calls: the innermost stair-step and the verification
//! references. Each mirrors what the matching backend adapter hands its
//! simulator, using only the simulators' public constructors.

use qfw::QfwResult;
use qfw_circuit::{Circuit, Op};
use qfw_hpc::topology::CoreId;
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_sim_stab::{StabSimulator, Tableau};
use qfw_sim_sv::dist::{run_distributed_laid_out, DistStats, RouteStrategy};
use qfw_sim_sv::{FusionLevel, StateVector, SvConfig, SvSimulator, Threading};
use qfw_sim_tn::{OrderHeuristic, TnConfig, TnSimulator};
use std::collections::BTreeMap;
use std::sync::Arc;

pub type Counts = BTreeMap<String, usize>;

/// Which simulator ran (or should run) a job.
#[derive(Clone, Debug, PartialEq)]
pub enum Engine {
    /// Dense state vector, serial or through the rayon shim.
    Sv {
        rayon: bool,
    },
    /// Stabilizer tableau over the first `seam` ops, dense from there on.
    Partition {
        rayon: bool,
        seam: usize,
    },
    /// Rank-distributed state vector.
    Dist {
        ranks: usize,
        layout: Option<Vec<usize>>,
    },
    Stab,
    Mps {
        chi_max: usize,
        trunc_eps: f64,
    },
    Tn,
}

impl Engine {
    /// The engine a completed job reports having used.
    pub fn of_result(r: &QfwResult) -> Result<Engine, String> {
        let sub = match r.metadata.get("method") {
            Some(method) => method.as_str(),
            None => r.subbackend.as_str(),
        };
        let rayon = sub == "openmp";
        Ok(match (r.backend.as_str(), sub) {
            ("nwqsim", "mpi") => Engine::Dist {
                ranks: r.profile.ranks.max(1),
                layout: match r.metadata.get("initial_layout") {
                    Some(csv) => Some(
                        csv.split(',')
                            .map(|q| q.trim().parse::<usize>())
                            .collect::<Result<_, _>>()
                            .map_err(|e| format!("initial_layout metadata: {e}"))?,
                    ),
                    None => None,
                },
            },
            ("nwqsim", _) => match r.partition() {
                Some((_, seam)) => Engine::Partition { rayon, seam },
                None => Engine::Sv { rayon },
            },
            ("aer", "stabilizer") => Engine::Stab,
            ("aer", "matrix_product_state") => Engine::Mps {
                chi_max: 64,
                trunc_eps: 1e-12,
            },
            ("aer", "statevector") => Engine::Sv { rayon: false },
            ("tnqvm", _) => Engine::Mps {
                chi_max: 32,
                trunc_eps: 1e-10,
            },
            ("qtensor", _) => Engine::Tn,
            (backend, sub) => return Err(format!("no direct engine for {backend}/{sub}")),
        })
    }

    /// The engine whose counts a job's counts must equal bitwise. Every
    /// dense path (threaded, partitioned, distributed) promises the serial
    /// state vector's counts; the others are checked against themselves.
    pub fn reference_for(r: &QfwResult) -> Result<Engine, String> {
        Ok(match Engine::of_result(r)? {
            Engine::Sv { .. } | Engine::Partition { .. } | Engine::Dist { .. } => {
                Engine::Sv { rayon: false }
            }
            other => other,
        })
    }

    /// Planner bucket of this engine, for `planner.picks.*`.
    pub fn pick_bucket(&self) -> &'static str {
        match self {
            Engine::Stab => "stab",
            Engine::Mps { .. } | Engine::Tn => "mps",
            Engine::Partition { .. } => "partition",
            Engine::Sv { .. } | Engine::Dist { .. } => "sv",
        }
    }

    /// Runs the circuit on this engine and returns its counts.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> Result<Counts, String> {
        Ok(match self {
            Engine::Sv { rayon } => {
                dense(*rayon, FusionLevel::Full)
                    .run(circuit, shots, seed)
                    .counts
            }
            Engine::Partition { rayon, seam } => {
                let n = circuit.num_qubits();
                let ops = circuit.ops();
                let seam = (*seam).min(ops.len());
                let mut tableau = Tableau::zero(n);
                for op in &ops[..seam] {
                    if let Op::Gate(g) = op {
                        if !g.is_clifford() {
                            return Err("partition seam crosses a non-Clifford gate".into());
                        }
                        tableau.apply(g);
                    }
                }
                let initial = StateVector::from_amps(tableau.to_amplitudes()?);
                let mut suffix = Circuit::with_clbits(n, circuit.num_clbits());
                for op in &ops[seam..] {
                    suffix.push_op(op.clone());
                }
                dense(*rayon, FusionLevel::None)
                    .run_from(initial, &suffix, shots, seed)
                    .counts
            }
            Engine::Dist { ranks, layout } => {
                run_ranks(*ranks, circuit, shots, seed, layout.clone())
                    .0
                    .counts
            }
            Engine::Stab => StabSimulator.run(circuit, shots, seed)?.counts,
            Engine::Mps { chi_max, trunc_eps } => {
                let config = MpsConfig {
                    chi_max: *chi_max,
                    trunc_eps: *trunc_eps,
                };
                MpsSimulator::new(config).run(circuit, shots, seed).counts
            }
            Engine::Tn => {
                let config = TnConfig {
                    order: OrderHeuristic::Greedy,
                    width_limit: 27,
                };
                TnSimulator::new(config).run(circuit, shots, seed).counts
            }
        })
    }
}

/// The dense engine as the `nwqsim` adapter configures it.
pub fn dense(rayon: bool, fusion: FusionLevel) -> SvSimulator {
    SvSimulator::new(SvConfig {
        threading: if rayon {
            Threading::Rayon
        } else {
            Threading::Serial
        },
        fusion,
        ..SvConfig::default()
    })
}

/// Spawns `ranks` rank threads on the DVM and runs the distributed engine,
/// as the `nwqsim/mpi` adapter does.
pub fn run_ranks(
    ranks: usize,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    layout: Option<Vec<usize>>,
) -> (qfw_sim_sv::engine::SvOutcome, DistStats) {
    let dvm = Dvm::new(&ClusterSpec::test(3));
    let placement = (0..ranks).map(|core| CoreId { node: 1, core }).collect();
    let circuit = Arc::new(circuit.clone());
    let job = dvm.spawn_placed(placement, move |mut ctx| {
        run_distributed_laid_out(
            &mut ctx,
            &circuit,
            shots,
            seed,
            RouteStrategy::Lazy,
            layout.as_deref(),
            &Obs::disabled(),
        )
    });
    job.wait()
        .swap_remove(0)
        .expect("rank 0 returns the outcome")
}
