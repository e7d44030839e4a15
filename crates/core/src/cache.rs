//! Content-addressed caches: a sharded, LRU-bounded map plus the cache
//! tiers the ingress path uses.
//!
//! * [`ShardedLru`] — the shared substrate: `2^k` shards, one mutex each,
//!   keyed by 128-bit [`ContentHash`] values. A lookup touches exactly one
//!   shard, so concurrent ingress workers rarely contend; eviction is
//!   LRU-by-access-tick within the shard that overflows.
//! * [`ResultCache`] — tier 1: completed [`QfwResult`]s keyed on
//!   the admitted job ([`ResolvedJob::cache_key`]: canonical circuit
//!   hash, seed, shots, resolved plan). A hit returns bitwise-identical
//!   counts without touching the scheduler or an engine. Everything that
//!   feeds the key is part of the executed computation, and every engine
//!   is deterministic in (circuit, seed), so a hit is always sound.
//! * The front (alias) tier, inside [`ResultCache`]: request key
//!   ([`ResultCache::request_key`]: the submission's bytes, unparsed) →
//!   the canonical key those bytes were admitted under. It holds no
//!   results and decides no equality — it only lets a byte-identical
//!   repeat reach its tier-1 entry ([`ResultCache::get_by_request`])
//!   without being compiled, admitted and canonically hashed again. Same
//!   capacity and sharding as tier 1.
//!
//! Every tier built with [`ShardedLru::new`] reports `cache.hit` /
//! `cache.miss` / `cache.evict` counters (plus per-tier `cache.<tier>.*`
//! variants) through the [`Obs`] handle it was built with. The front tier
//! is consulted on every submission *in addition to* tier 1, so it
//! reports under `cache.front.*` only: one served request is one
//! `cache.hit`.

use crate::plan::{GroupCores, ResolvedJob, Source};
use crate::result::QfwResult;
use crate::spec::BackendSpec;
use parking_lot::Mutex;
use qfw_circuit::hash::ContentHash;
use qfw_obs::{Counter, Obs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capacity/sharding knobs for one cache tier.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum entries across all shards (0 disables the cache: every
    /// lookup misses, every insert is dropped).
    pub capacity: usize,
    /// Shard count hint; rounded up to a power of two and capped so every
    /// shard holds at least one entry.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// A cache bounded to `capacity` entries with default sharding.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            ..CacheConfig::default()
        }
    }
}

/// Point-in-time counters for one cache tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Shard<V> {
    /// key → (last-access tick, value).
    map: HashMap<u128, (u64, V)>,
    capacity: usize,
}

impl<V> Shard<V> {
    /// Evicts the least-recently-used entry. Linear scan over the shard —
    /// shards are small (capacity/shards) and this runs only on insert
    /// into a full shard, never on the lookup path.
    fn evict_lru(&mut self) {
        if let Some(&key) = self
            .map
            .iter()
            .min_by_key(|(_, (tick, _))| *tick)
            .map(|(k, _)| k)
        {
            self.map.remove(&key);
        }
    }
}

/// A sharded, LRU-bounded, 128-bit-keyed concurrent map.
///
/// Values are cloned out on hit, so `V` is typically an `Arc<T>`.
pub struct ShardedLru<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    /// Shard selector mask (`shards.len() - 1`, power of two).
    mask: usize,
    /// Global access tick; per-entry recency stamps come from here.
    tick: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    tier_hits: Counter,
    tier_misses: Counter,
    tier_evictions: Counter,
}

impl<V: Clone> ShardedLru<V> {
    /// Builds a cache tier named `tier` (metrics label), reporting to
    /// `obs`.
    pub fn new(cfg: CacheConfig, obs: &Obs, tier: &str) -> ShardedLru<V> {
        ShardedLru::build(cfg, obs, tier, true)
    }

    /// `rollup` is whether this tier also counts into the untiered
    /// `cache.hit` / `cache.miss` / `cache.evict`; a tier consulted on the
    /// way to another one must not, or one request reads as two lookups.
    fn build(cfg: CacheConfig, obs: &Obs, tier: &str, rollup: bool) -> ShardedLru<V> {
        // The largest power of two that is at most the hint (rounded up)
        // and at most the capacity, so every shard holds at least one entry.
        let shard_count = cfg
            .shards
            .max(1)
            .next_power_of_two()
            .min(1 << cfg.capacity.max(1).ilog2());
        // The slots sum to exactly `capacity`: the remainder goes one each
        // to the first shards.
        let (per_shard, extra) = (cfg.capacity / shard_count, cfg.capacity % shard_count);
        let shards = (0..shard_count)
            .map(|i| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    capacity: per_shard + usize::from(i < extra),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let untiered = |name: &str| {
            if rollup {
                obs.counter(name)
            } else {
                Counter::default()
            }
        };
        ShardedLru {
            shards,
            mask: shard_count - 1,
            tick: AtomicU64::new(0),
            hits: untiered("cache.hit"),
            misses: untiered("cache.miss"),
            evictions: untiered("cache.evict"),
            tier_hits: obs.counter(&format!("cache.{tier}.hit")),
            tier_misses: obs.counter(&format!("cache.{tier}.miss")),
            tier_evictions: obs.counter(&format!("cache.{tier}.evict")),
        }
    }

    fn shard_for(&self, key: ContentHash) -> &Mutex<Shard<V>> {
        // The low bits of an FNV hash are well mixed; fold the high half
        // in anyway so sharding never degenerates on structured folds.
        let k = key.value();
        let idx = ((k ^ (k >> 64)) as usize) & self.mask;
        &self.shards[idx]
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&self, key: ContentHash) -> Option<V> {
        let found = self.probe(key);
        self.count_lookup(found.is_some());
        found
    }

    /// [`ShardedLru::get`] without the counters, for a caller that decides
    /// what the lookup counts as only after a second one.
    fn probe(&self, key: ContentHash) -> Option<V> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(key).lock();
        let (stamp, v) = shard.map.get_mut(&key.value())?;
        *stamp = tick;
        Some(v.clone())
    }

    fn count_lookup(&self, hit: bool) {
        if hit {
            self.hits.inc();
            self.tier_hits.inc();
        } else {
            self.misses.inc();
            self.tier_misses.inc();
        }
    }

    /// Inserts (or refreshes) a key, evicting the shard's LRU entry under
    /// capacity pressure. Returns whether an eviction happened.
    pub fn insert(&self, key: ContentHash, value: V) -> bool {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(key).lock();
        if shard.capacity == 0 {
            return false;
        }
        let mut evicted = false;
        if !shard.map.contains_key(&key.value()) && shard.map.len() >= shard.capacity {
            shard.evict_lru();
            evicted = true;
        }
        shard.map.insert(key.value(), (tick, value));
        drop(shard);
        if evicted {
            self.evictions.inc();
            self.tier_evictions.inc();
        }
        evicted
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Point-in-time statistics for this tier.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.tier_hits.get(),
            misses: self.tier_misses.get(),
            evictions: self.tier_evictions.get(),
            entries: self.len(),
        }
    }
}

/// Tier 1: the content-addressed result cache.
///
/// Stores completed results behind `Arc` so hits never copy the counts
/// histogram. The stored result is exactly what the engine produced —
/// callers who want to flag a served-from-cache response add metadata on
/// their own copy.
///
/// In front of it sits the alias tier: [`ResultCache::request_key`] →
/// the canonical key the same bytes were admitted under, written by
/// [`ResultCache::alias`] and followed by [`ResultCache::get_by_request`].
pub struct ResultCache {
    lru: ShardedLru<Arc<QfwResult>>,
    front: ShardedLru<ContentHash>,
    /// `cache.front.stale`: the alias was there, its result was not.
    stale: Counter,
}

impl ResultCache {
    /// Builds both tiers over `obs` (metrics tier labels: `result`,
    /// `front`), each bounded by `cfg`.
    pub fn new(cfg: CacheConfig, obs: &Obs) -> ResultCache {
        ResultCache {
            lru: ShardedLru::new(cfg, obs, "result"),
            front: ShardedLru::build(cfg, obs, "front", false),
            stale: obs.counter("cache.front.stale"),
        }
    }

    /// The key of one submission *as submitted*: the circuit's bytes — no
    /// parse, no normalisation — then seed, shots and every field of the
    /// spec read as plain strings. Any changed byte is a different key, so
    /// this key never decides that two submissions are the same job; it
    /// only recognises one it has seen. Tenant, priority and deadline are
    /// not part of it, exactly as they are not part of [`ResultCache::key`].
    pub fn request_key(circuit: &str, seed: u64, shots: usize, spec: &BackendSpec) -> ContentHash {
        let head = ContentHash::of_bytes(&[])
            .fold_str(circuit)
            .fold_u64(seed)
            .fold_u64(shots as u64)
            .fold_str(&spec.backend)
            .fold_str(&spec.subbackend)
            .fold_u64(spec.ranks as u64);
        spec.extra
            .iter()
            .fold(head, |h, (k, v)| h.fold_str(k).fold_str(v))
    }

    /// Records that the submission keyed `request` was admitted as the job
    /// keyed `key`. Sound only for a caller that computed `key` from those
    /// exact bytes, against the worker group it serves.
    pub fn alias(&self, request: ContentHash, key: ContentHash) {
        self.front.insert(request, key);
    }

    /// Follows a request key's alias to its completed result. Every call
    /// counts as exactly one of `cache.front.hit` (served; also a
    /// `cache.hit`), `cache.front.stale` (alias known, result evicted or
    /// not produced yet — or never: failed, cancelled) and
    /// `cache.front.miss` (bytes never admitted here, or alias evicted).
    /// On the last two the caller takes the full path, whose
    /// [`ResultCache::get`] is then the submission's one tier-1 lookup.
    pub fn get_by_request(&self, request: ContentHash) -> Option<Arc<QfwResult>> {
        let Some(key) = self.front.probe(request) else {
            self.front.count_lookup(false);
            return None;
        };
        let found = self.lru.probe(key);
        if found.is_some() {
            self.front.count_lookup(true);
            self.lru.count_lookup(true);
        } else {
            self.stale.inc();
        }
        found
    }

    /// The cache key of one execution given as wire strings: admit it
    /// against no particular worker group, then [`ResolvedJob::cache_key`]
    /// — so it equals the key of the same job admitted anywhere. A
    /// submission that is not admitted never executes, so nothing is ever
    /// stored under its key and any deterministic value will do.
    pub fn key(circuit: &str, seed: u64, shots: usize, spec: &BackendSpec) -> ContentHash {
        let source = Source::Wire(circuit);
        match ResolvedJob::admit(source, shots, seed, spec, GroupCores::UNBOUNDED) {
            Ok(job) => job.cache_key(),
            Err(_) => ContentHash::of_bytes(circuit.as_bytes()).fold_str("refused"),
        }
    }

    /// Looks up a completed result.
    pub fn get(&self, key: ContentHash) -> Option<Arc<QfwResult>> {
        self.lru.get(key)
    }

    /// Records a completed result.
    pub fn insert(&self, key: ContentHash, result: Arc<QfwResult>) {
        self.lru.insert(key, result);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::hash::ContentHash;

    fn lru(capacity: usize, shards: usize) -> ShardedLru<Arc<u64>> {
        // A fresh handle per test: `Obs::disabled()` is a process-wide
        // singleton whose metrics registry would be shared across tests.
        ShardedLru::new(CacheConfig { capacity, shards }, &Obs::wall(), "test")
    }

    fn key(i: u64) -> ContentHash {
        ContentHash::of_bytes(&i.to_le_bytes())
    }

    #[test]
    fn get_insert_round_trip() {
        let c = lru(8, 2);
        assert!(c.get(key(1)).is_none());
        c.insert(key(1), Arc::new(10));
        assert_eq!(*c.get(key(1)).unwrap(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_is_lru_within_shard() {
        // Single shard, capacity 2: inserting a third key evicts the
        // least recently *accessed* one.
        let c = lru(2, 1);
        c.insert(key(1), Arc::new(1));
        c.insert(key(2), Arc::new(2));
        assert!(c.get(key(1)).is_some()); // refresh 1 → 2 becomes LRU
        c.insert(key(3), Arc::new(3));
        assert!(c.get(key(2)).is_none(), "LRU entry must be evicted");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_bound_holds_under_pressure() {
        let c = lru(16, 4);
        for i in 0..500 {
            c.insert(key(i), Arc::new(i));
        }
        assert!(c.len() <= 16, "len {} exceeds bound", c.len());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn capacity_is_exact_when_it_does_not_divide_into_shards() {
        // 8 shards of one slot each would hold 8; the bound is 5.
        for (capacity, shards) in [(5, 8), (7, 4), (1, 8), (3, 2)] {
            let c = lru(capacity, shards);
            for i in 0..200 {
                c.insert(key(i), Arc::new(i));
            }
            assert_eq!(c.len(), capacity, "capacity {capacity}, {shards} shards");
        }
    }

    #[test]
    fn zero_capacity_disables() {
        let c = lru(0, 4);
        c.insert(key(1), Arc::new(1));
        assert!(c.get(key(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let c = lru(1, 1);
        c.insert(key(1), Arc::new(1));
        c.insert(key(1), Arc::new(2));
        assert_eq!(*c.get(key(1)).unwrap(), 2);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn obs_counters_are_reported() {
        let obs = Obs::virtual_clock(1);
        let c: ShardedLru<Arc<u64>> = ShardedLru::new(
            CacheConfig {
                capacity: 1,
                shards: 1,
            },
            &obs,
            "t",
        );
        c.insert(key(1), Arc::new(1));
        c.get(key(1));
        c.get(key(2));
        c.insert(key(2), Arc::new(2)); // evicts 1
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("\"cache.hit\":1"), "{snap}");
        assert!(snap.contains("\"cache.miss\":1"), "{snap}");
        assert!(snap.contains("\"cache.evict\":1"), "{snap}");
        assert!(snap.contains("\"cache.t.hit\":1"), "{snap}");
    }

    #[test]
    fn result_key_separates_every_component() {
        let circ = "qfwasm 1\nqubits 2\nh q0\ncx q0 q1\nmeasure q0 -> c0\nmeasure q1 -> c1\n";
        let spec = BackendSpec::of("nwqsim", "cpu");
        let base = ResultCache::key(circ, 7, 100, &spec);
        assert_ne!(base, ResultCache::key(circ, 8, 100, &spec));
        assert_ne!(base, ResultCache::key(circ, 7, 101, &spec));
        assert_ne!(base, ResultCache::key(circ, 7, 100, &BackendSpec::of("aer", "cpu")));
        assert_ne!(
            base,
            ResultCache::key(circ, 7, 100, &spec.clone().with_extra("noise_p1", 0.01))
        );
        // Canonicalization: a formatting variant keys identically.
        let noisy = circ.replace("\nh q0", "\n# c\n\nh q0");
        assert_eq!(base, ResultCache::key(&noisy, 7, 100, &spec));
    }

    #[test]
    fn noisy_and_ideal_submissions_never_alias() {
        let circ = "qfwasm 1\nqubits 2\nh q0\ncx q0 q1\nmeasure q0 -> c0\nmeasure q1 -> c1\n";
        let spec = BackendSpec::of("nwqsim", "cpu");
        let ideal = ResultCache::key(circ, 7, 100, &spec);

        let mut model = qfw_noise::NoiseModel::empty();
        model.add_2q_all(qfw_noise::Channel::depolarizing(0.01));
        let noisy_spec = spec.clone().with_extra("noise_model", model.to_text());
        let noisy = ResultCache::key(circ, 7, 100, &noisy_spec);
        assert_ne!(ideal, noisy, "noisy run aliased the ideal key");

        // The hash tracks noise *content*, not the raw extra string.
        let stronger = spec
            .clone()
            .with_extra("noise_model", model.scaled(2.0).to_text());
        assert_ne!(noisy, ResultCache::key(circ, 7, 100, &stronger));

        // A zero-strength model keys identically to no model at all.
        let zero = spec
            .clone()
            .with_extra("noise_model", qfw_noise::NoiseModel::empty().to_text());
        assert_eq!(ideal, ResultCache::key(circ, 7, 100, &zero));

        // A malformed model is refused, and keys apart from any real job.
        let bad = spec.clone().with_extra("noise_model", "not-a-model");
        assert_ne!(ideal, ResultCache::key(circ, 7, 100, &bad));
    }
}
