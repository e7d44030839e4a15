//! Bind-many sweep execution for parameterized circuits.
//!
//! A sweep point is a bound job: [`ParamCircuit::bind`], then the engine's
//! one dense path — [`fuse`](crate::fusion::fuse) into a
//! [`LayerPlan`](crate::layers::LayerPlan) (or the one-layer-per-gate
//! [`verbatim`](crate::fusion::verbatim) plan under
//! [`FusionLevel::None`](crate::fusion::FusionLevel)), then
//! `SvSimulator`'s one sampling tail. Binding and fusing are two `O(ops)`
//! passes, a few percent of applying the gates, so nothing is remembered
//! between points and a point's counts, `gates_applied` and amplitudes are
//! those of the bound circuit by construction. What a sweep saves is what
//! surrounds the engine: one RPC, one parse, one slot for `k` bindings.
//!
//! Gradients use the exact two-point parameter-shift rule: every family
//! that takes a symbolic angle ([`RotKind::SYMBOLIC`](qfw_circuit::RotKind::SYMBOLIC))
//! has a gap-1 generator spectrum, so
//! `dE/d(angle) = [E(angle + pi/2) - E(angle - pi/2)] / 2` exactly, and the
//! chain rule multiplies each occurrence's contribution by its affine
//! coefficient. Shifts are applied per *occurrence* (op index), not per
//! parameter.

use crate::engine::{SvOutcome, SvSimulator, Threading};
use crate::state::StateVector;
use qfw_circuit::{Angle, Circuit, Counts, ParamCircuit, ParamOp};
use qfw_obs::Obs;
use rayon::ParallelSliceMut;
use std::convert::Infallible;
use std::f64::consts::FRAC_PI_2;

/// One point of a parameter sweep: a binding plus its sampling request.
/// Per-point shots/seeds let the scheduler coalesce jobs that agree on the
/// skeleton but not on shot counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Parameter vector bound to the skeleton's `theta[i]` slots.
    pub params: Vec<f64>,
    /// Number of measurement shots for this binding.
    pub shots: usize,
    /// Sampling seed for this binding (bitwise-reproducible counts).
    pub seed: u64,
}

/// A skeleton and the engine configuration its bindings run under. Build
/// with [`SvSimulator::compile_sweep`]; evaluate bindings with
/// [`run`](Self::run) / [`statevector`](Self::statevector) /
/// [`expectation_z`](Self::expectation_z) /
/// [`grad_expectation_z`](Self::grad_expectation_z). Holds nothing that
/// depends on a binding.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    template: ParamCircuit,
    engine: SvSimulator,
}

impl SweepPlan {
    /// Executes one binding: exactly
    /// `engine.run(&template.bind(&point.params), point.shots, point.seed)`,
    /// except that the outcome's `gate_time` also covers the bind and the
    /// fuse, so `gate_time + sample_time` is the point's whole cost, and
    /// the counts stay outcome words.
    pub fn run(&self, point: &SweepPoint) -> SvOutcome<Counts> {
        self.run_traced(point, &Obs::disabled())
    }

    fn run_traced(&self, point: &SweepPoint, obs: &Obs) -> SvOutcome<Counts> {
        let sw = qfw_hpc::Stopwatch::start();
        let circuit = self.template.bind(&point.params);
        let mut out = self
            .engine
            .run_traced(&circuit, point.shots, point.seed, obs);
        out.gate_time = sw.elapsed().saturating_sub(out.sample_time);
        out
    }

    /// The final state vector for one binding (unitary part only).
    pub fn statevector(&self, params: &[f64]) -> StateVector {
        self.engine.statevector(&self.template.bind(params))
    }

    /// `<psi(theta)| O |psi(theta)>` for a diagonal observable given as
    /// Pauli-Z strings: `O = sum_j w_j Z_{mask_j}`.
    pub fn expectation_z(&self, params: &[f64], terms: &[(usize, f64)]) -> f64 {
        let tab = z_observable_table(1 << self.template.num_qubits(), terms);
        self.energy(&self.template.bind(params), &tab)
    }

    /// Exact parameter-shift gradient of [`expectation_z`](Self::expectation_z):
    /// for every symbolic occurrence `g` with angle `a_g * theta_p + b_g`,
    /// `dE/dtheta_p += a_g * [E(angle_g + pi/2) - E(angle_g - pi/2)] / 2`,
    /// each `E` one shifted binding through the engine (in parallel across
    /// occurrences under [`Threading::Rayon`]).
    pub fn grad_expectation_z(&self, params: &[f64], terms: &[(usize, f64)]) -> Vec<f64> {
        let tab = z_observable_table(1 << self.template.num_qubits(), terms);
        // `(op index, param index, affine coeff)` of every symbolic occurrence.
        let occurrences: Vec<(usize, usize, f64)> = self
            .template
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                ParamOp::Rot(r) => match r.angle() {
                    Angle::Sym { index, coeff, .. } => Some((i, index, coeff)),
                    Angle::Lit(_) => None,
                },
                _ => None,
            })
            .collect();
        let mut diffs = vec![0.0f64; occurrences.len()];
        let eval = |(j, diff): (usize, &mut f64)| {
            let at = |delta| self.energy(&self.bind_shifted(params, occurrences[j].0, delta), &tab);
            *diff = at(FRAC_PI_2) - at(-FRAC_PI_2);
        };
        if self.engine.config.threading == Threading::Rayon {
            diffs.par_iter_mut().enumerate().for_each(eval);
        } else {
            diffs.iter_mut().enumerate().for_each(eval);
        }
        let mut grad = vec![0.0f64; self.template.num_params().max(params.len())];
        for (&(_, p_idx, coeff), diff) in occurrences.iter().zip(&diffs) {
            grad[p_idx] += coeff * 0.5 * diff;
        }
        grad
    }

    /// The skeleton bound at `params`, with `delta` added to the angle of
    /// the symbolic occurrence at op `idx`.
    fn bind_shifted(&self, params: &[f64], idx: usize, delta: f64) -> Circuit {
        let mut shifted = ParamCircuit::new(self.template.num_qubits());
        for (i, op) in self.template.ops().iter().enumerate() {
            let op = match op {
                ParamOp::Rot(r) if i == idx => match r.angle() {
                    Angle::Sym {
                        index,
                        coeff,
                        offset,
                    } => ParamOp::Rot(
                        r.with_angle(Angle::Sym {
                            index,
                            coeff,
                            offset: offset + delta,
                        })
                        .expect("the family already holds a symbolic angle"),
                    ),
                    Angle::Lit(_) => ParamOp::Rot(*r),
                },
                op => op.clone(),
            };
            shifted.push(op);
        }
        shifted.bind(params)
    }

    /// `sum_b tab[b] |<b|psi>|^2` after the unitary part of `circuit`.
    fn energy(&self, circuit: &Circuit, tab: &[f64]) -> f64 {
        self.engine.expectation_diagonal(circuit, |b| tab[b])
    }
}

/// Dense table of the diagonal observable `sum_j w_j Z_{mask_j}`:
/// `tab[b] = sum_j w_j (-1)^{popcount(b & mask_j)}`. Built once per
/// expectation/gradient call so every (shifted) binding evaluation is a
/// single pass over its probabilities.
fn z_observable_table(dim: usize, terms: &[(usize, f64)]) -> Vec<f64> {
    let mut tab = vec![0.0f64; dim];
    for &(mask, w) in terms {
        // The parity cannot change below the mask's lowest bit.
        let block = if mask == 0 {
            dim
        } else {
            dim.min(1 << mask.trailing_zeros())
        };
        for (b, entries) in tab.chunks_mut(block).enumerate() {
            let s = if ((b * block) & mask).count_ones() & 1 == 0 {
                w
            } else {
                -w
            };
            for t in entries {
                *t += s;
            }
        }
    }
    tab
}

// --- engine facade ----------------------------------------------------------

impl SvSimulator {
    /// A handle for evaluating bindings of `template` under this engine's
    /// configuration (fusion tier, threading). Never fails: a skeleton with
    /// a mid-circuit measurement is served like any circuit, by the layer
    /// plan's collapse steps.
    pub fn compile_sweep(&self, template: &ParamCircuit) -> Result<SweepPlan, Infallible> {
        Ok(SweepPlan {
            template: template.clone(),
            engine: *self,
        })
    }

    /// Executes every sweep point: each is its own bound run, seeded like
    /// [`run`](Self::run), so a sweep is bitwise-identical to executing its
    /// bindings one by one. A lone point emits a concrete job's spans
    /// (`sv.fuse` / `sv.apply` / `sv.sample`); several run inside one
    /// `sweep.run` span, across rayon workers under [`Threading::Rayon`].
    pub fn run_plan_traced(
        &self,
        plan: &SweepPlan,
        points: &[SweepPoint],
        obs: &Obs,
    ) -> Vec<SvOutcome<Counts>> {
        if let [point] = points {
            return vec![plan.run_traced(point, obs)];
        }
        let _run_span = obs
            .span("engine", "sweep.run")
            .attr("points", points.len())
            .attr("shots", points.iter().map(|p| p.shots).sum::<usize>());
        let mut out: Vec<Option<SvOutcome<Counts>>> = vec![None; points.len()];
        // Each point owns its output slot and its own seeded sampler, so
        // parallel order cannot leak into the counts.
        let run =
            |(i, slot): (usize, &mut Option<SvOutcome<Counts>>)| *slot = Some(plan.run(&points[i]));
        if self.config.threading == Threading::Rayon {
            out.par_iter_mut().enumerate().for_each(run);
        } else {
            out.iter_mut().enumerate().for_each(run);
        }
        out.into_iter()
            .map(|o| o.expect("point executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SvConfig;
    use qfw_circuit::Gate;
    use qfw_num::approx_eq;

    fn tiny_qaoa(n: usize) -> ParamCircuit {
        let mut t = ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        for q in 0..n {
            t.rz(q, Angle::scaled(0, 0.7 + q as f64 * 0.1));
        }
        for q in 0..n - 1 {
            t.rzz(q, q + 1, Angle::scaled(0, 1.0 + q as f64 * 0.2));
        }
        for q in 0..n {
            t.rx(q, Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    }

    fn points(k: usize) -> Vec<SweepPoint> {
        (0..k)
            .map(|i| SweepPoint {
                params: vec![0.1 * i as f64, 0.5 - 0.07 * i as f64],
                shots: 200 + 10 * i,
                seed: 1000 + i as u64,
            })
            .collect()
    }

    #[test]
    fn sweep_counts_match_plan_runs_bitwise() {
        let t = tiny_qaoa(6);
        let points = points(8);
        for threading in [Threading::Serial, Threading::Rayon] {
            let engine = SvSimulator::new(SvConfig {
                threading,
                ..SvConfig::default()
            });
            let plan = engine.compile_sweep(&t).expect("plan");
            let swept = engine.run_plan_traced(&plan, &points, &Obs::disabled());
            for (point, out) in points.iter().zip(swept.iter()) {
                assert_eq!(out.counts, plan.run(point).counts);
                assert_eq!(out.counts.values().sum::<usize>(), point.shots);
            }
        }
    }

    #[test]
    fn partial_measurement_projects_clbits() {
        let mut t = ParamCircuit::new(3);
        t.h(0);
        t.fixed(Gate::Cx(0, 1)).fixed(Gate::Cx(1, 2));
        t.rz(2, Angle::sym(0));
        t.push(ParamOp::Measure { qubit: 2, clbit: 0 });
        let plan = SvSimulator::default().compile_sweep(&t).expect("plan");
        let out = plan.run(&SweepPoint {
            params: vec![0.4],
            shots: 300,
            seed: 9,
        });
        // GHZ up to phases: only "0" / "1" on the single measured clbit —
        // but width follows the bound circuit's clbit register (= n).
        assert!(out.counts.keys().all(|k| k == "000" || k == "001"));
        assert_eq!(out.counts.len(), 2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let t = tiny_qaoa(5);
        let terms: Vec<(usize, f64)> = vec![(0b00011, 0.7), (0b10100, -1.2), (0b00001, 0.4)];
        let theta = [0.45, -0.8];
        for threading in [Threading::Serial, Threading::Rayon] {
            let plan = SvSimulator::new(SvConfig {
                threading,
                ..SvConfig::default()
            })
            .compile_sweep(&t)
            .expect("plan");
            let grad = plan.grad_expectation_z(&theta, &terms);
            let eps = 1e-5;
            for p in 0..2 {
                let mut up = theta.to_vec();
                let mut dn = theta.to_vec();
                up[p] += eps;
                dn[p] -= eps;
                let fd = (plan.expectation_z(&up, &terms) - plan.expectation_z(&dn, &terms))
                    / (2.0 * eps);
                assert!(
                    approx_eq(grad[p], fd, 1e-6),
                    "param {p}: shift {} vs fd {fd}",
                    grad[p]
                );
            }
        }
    }

    #[test]
    fn z_table_matches_the_parity_definition() {
        let terms = [(0b0110, 0.5), (0b0001, -2.0), (0, 0.25), (0b1000, 1.5)];
        let tab = z_observable_table(16, &terms);
        for (b, got) in tab.iter().enumerate() {
            let want: f64 = terms
                .iter()
                .map(|&(mask, w)| {
                    if (b & mask).count_ones() & 1 == 0 {
                        w
                    } else {
                        -w
                    }
                })
                .sum();
            assert!(approx_eq(*got, want, 1e-12), "entry {b}: {got} vs {want}");
        }
    }

    #[test]
    fn a_lone_point_emits_a_concrete_jobs_spans() {
        let t = tiny_qaoa(4);
        let engine = SvSimulator::default();
        let plan = engine.compile_sweep(&t).expect("plan");
        let names = |k: usize| -> Vec<String> {
            let obs = Obs::virtual_clock(5);
            engine.run_plan_traced(&plan, &points(k), &obs);
            obs.spans().iter().map(|s| s.name.clone()).collect()
        };
        assert_eq!(names(1), ["sv.fuse", "sv.apply", "sv.sample"]);
        assert_eq!(names(3), ["sweep.run"]);
    }
}
