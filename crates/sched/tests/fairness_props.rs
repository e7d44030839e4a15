//! Property tests for the fair queue's scheduling invariants.
//!
//! The [`FairQueue`] is pure (no clocks, no threads), so its fairness
//! guarantees are directly checkable: over random tenant mixes, deficit
//! round-robin service counts must track configured weights within one
//! quantum, no admitted job may starve, admission bounds must hold
//! exactly, and intra-tenant ordering (strict priority, then EDF) must
//! never be violated.

use proptest::prelude::*;
use qfw::{BackendSpec, GroupCores, ResolvedJob, Source};
use qfw_sched::{FairQueue, Priority, QueuedJob};
use std::collections::HashMap;

fn tenant_name(i: usize) -> String {
    format!("tenant{i}")
}

fn job(id: u64, tenant: &str, priority: Priority, deadline_us: u64) -> QueuedJob {
    let (spec, group) = (
        BackendSpec::of("aer", "statevector"),
        GroupCores {
            total: 8,
            per_llc: 4,
        },
    );
    let admitted =
        ResolvedJob::admit(Source::Wire("qfwasm 1\nqubits 1\nh q0\n"), 10, 0, &spec, group).unwrap();
    QueuedJob::new(id, tenant.into(), priority, admitted, deadline_us)
}

/// Splitmix-style deterministic value stream for a drawn seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DRR share convergence: with every tenant backlogged, any window of
    /// full rotations serves each tenant exactly in weight proportion —
    /// the error never exceeds one quantum (= the tenant's weight).
    #[test]
    fn drr_counts_track_weights(n_tenants in 2usize..5, seed in 0u64..u64::MAX) {
        let mut q = FairQueue::new(100_000, 1, 100_000);
        let weights: Vec<u32> = (0..n_tenants)
            .map(|i| 1 + (mix(seed, i as u64) % 5) as u32)
            .collect();
        let weight_sum: u32 = weights.iter().sum();
        // Enough jobs that every tenant stays backlogged for `rounds`
        // full rotations.
        let rounds = 6u32;
        for (i, w) in weights.iter().enumerate() {
            let per_tenant = (w * (rounds + 2)) as u64;
            q.set_tenant(&tenant_name(i), *w, 100_000);
            for j in 0..per_tenant {
                q.try_push(job(i as u64 * 10_000 + j, &tenant_name(i), Priority::Normal, u64::MAX)).unwrap();
            }
        }
        // Pop exactly `rounds` rotations' worth of service.
        let k = (rounds * weight_sum) as usize;
        let mut counts: HashMap<String, u32> = HashMap::new();
        for _ in 0..k {
            let served = q.pop().expect("queue is backlogged");
            *counts.entry(served.tenant).or_insert(0) += 1;
        }
        for (i, w) in weights.iter().enumerate() {
            let got = *counts.get(&tenant_name(i)).unwrap_or(&0);
            let want = rounds * w;
            let err = got.abs_diff(want);
            prop_assert!(
                err <= *w,
                "tenant {} served {} times, want {} (weight {}), error beyond one quantum",
                i, got, want, w
            );
        }
    }

    /// No starvation: every admitted job is eventually popped when the
    /// queue drains, regardless of weights, priorities, and deadlines.
    #[test]
    fn every_admitted_job_drains(n_jobs in 1usize..120, seed in 0u64..u64::MAX) {
        let mut q = FairQueue::new(1_000, 1, 1_000);
        let mut admitted = Vec::new();
        for j in 0..n_jobs as u64 {
            let tenant = tenant_name((mix(seed, j) % 4) as usize);
            let priority = match mix(seed, j.wrapping_add(1_000)) % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            let deadline = match mix(seed, j.wrapping_add(2_000)) % 3 {
                0 => u64::MAX,
                other => other * 1_000 + j,
            };
            q.try_push(job(j, &tenant, priority, deadline)).unwrap();
            admitted.push(j);
        }
        let mut popped = Vec::new();
        while let Some(served) = q.pop() {
            popped.push(served.id);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, admitted, "some admitted job never dispatched");
        prop_assert!(q.is_empty());
    }

    /// Admission bounds hold exactly: the queue never exceeds its global
    /// depth, no tenant exceeds its quota, and every rejection is
    /// justified by one of the two bounds at rejection time.
    #[test]
    fn admission_bounds_are_exact(
        max_depth in 1usize..40,
        quota in 1usize..20,
        n_jobs in 1usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let mut q = FairQueue::new(max_depth, 1, quota);
        let mut per_tenant: HashMap<String, usize> = HashMap::new();
        let mut depth = 0usize;
        for j in 0..n_jobs as u64 {
            let tenant = tenant_name((mix(seed, j) % 3) as usize);
            let tenant_depth = *per_tenant.get(&tenant).unwrap_or(&0);
            match q.try_push(job(j, &tenant, Priority::Normal, u64::MAX)) {
                Ok(()) => {
                    depth += 1;
                    *per_tenant.entry(tenant).or_insert(0) += 1;
                    prop_assert!(depth <= max_depth);
                    prop_assert!(tenant_depth < quota);
                }
                Err(e) => {
                    let justified =
                        depth >= max_depth || tenant_depth >= quota;
                    prop_assert!(justified, "unjustified rejection {e:?}");
                }
            }
            prop_assert_eq!(q.len(), depth);
        }
    }

    /// Intra-tenant order: for a single tenant, pops come out in strict
    /// priority order, EDF within a class, FIFO on deadline ties.
    #[test]
    fn intra_tenant_order_is_priority_then_edf(n_jobs in 1usize..60, seed in 0u64..u64::MAX) {
        let mut q = FairQueue::new(1_000, 1, 1_000);
        let mut expect: Vec<(usize, u64, u64)> = Vec::new();
        for j in 0..n_jobs as u64 {
            let priority = match mix(seed, j) % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            // A handful of distinct deadlines so ties actually occur.
            let deadline = 1_000 + mix(seed, j.wrapping_add(500)) % 4 * 100;
            q.try_push(job(j, "solo", priority, deadline)).unwrap();
            expect.push((priority.class(), deadline, j));
        }
        expect.sort_unstable();
        let got: Vec<u64> = (0..n_jobs).map(|_| q.pop().unwrap().id).collect();
        let want: Vec<u64> = expect.iter().map(|(_, _, id)| *id).collect();
        prop_assert_eq!(got, want);
    }

    /// Batching never buys share: coalescing a tenant's jobs charges its
    /// deficit, so over a long window its share still tracks its weight.
    #[test]
    fn batch_debt_preserves_long_run_shares(seed in 0u64..u64::MAX) {
        let mut q = FairQueue::new(100_000, 1, 100_000);
        q.set_tenant("batchy", 1, 100_000);
        q.set_tenant("steady", 1, 100_000);
        let per_tenant = 40u64;
        for j in 0..per_tenant {
            q.try_push(job(j, "batchy", Priority::Normal, u64::MAX)).unwrap();
            q.try_push(job(1_000 + j, "steady", Priority::Normal, u64::MAX)).unwrap();
        }
        let batch_size = 2 + (mix(seed, 7) % 4) as usize; // 2..=5
        let mut served: HashMap<String, u64> = HashMap::new();
        // Drain with batching for "batchy" only: whenever a pop yields
        // batchy, coalesce mates; every coalesced job charges deficit.
        while let Some(lead) = q.pop() {
            let tenant = lead.tenant.clone();
            *served.entry(tenant.clone()).or_insert(0) += 1;
            if tenant == "batchy" {
                let class = Priority::Normal.class();
                let mates = q.pop_batch_mates("batchy", class, lead.skeleton, batch_size - 1);
                *served.get_mut("batchy").unwrap() += mates.len() as u64;
            }
            // Check the running imbalance stays bounded by one batch:
            // debt forces the rotation to repay before batchy is served
            // again.
            let b = *served.get("batchy").unwrap_or(&0);
            let s = *served.get("steady").unwrap_or(&0);
            if b + s < 2 * per_tenant {
                prop_assert!(
                    b.abs_diff(s) <= batch_size as u64,
                    "imbalance {} vs {} exceeds batch size {}",
                    b, s, batch_size
                );
            }
        }
        prop_assert_eq!(served["batchy"], per_tenant);
        prop_assert_eq!(served["steady"], per_tenant);
    }
}
