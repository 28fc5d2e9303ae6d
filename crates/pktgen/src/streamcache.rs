//! The process-global, content-addressed stream chunk cache.
//!
//! The testbed generates *one* stream per (workload, rate, repeat) and
//! feeds it to every sniffer through the optical splitter — yet a sweep
//! that evaluates several SUT sets at the same measurement point used to
//! regenerate that identical stream once per cell. This cache shares the
//! generation: streams are addressed by a 128-bit [`Fingerprintable`]
//! digest of everything that determines their content (generator config,
//! pacing rate, per-repeat seed), the first cell to need a stream
//! generates and publishes its [`Chunk`]s, and every concurrent or later
//! cell at the same key subscribes to the published chunks instead of
//! running the generator again.
//!
//! Publication is incremental: a [`StreamPublisher`] appends chunks as
//! the producing cell pulls them, and a [`StreamSubscriber`] blocks only
//! when it catches up with the producer — concurrent cells overlap, they
//! do not serialize behind a fully generated stream. Subscribed chunks
//! are the *same allocations* the producer made (`Arc` clones), so a
//! shared stream is resident exactly once no matter how many cells read
//! it.
//!
//! Lifetimes follow declared demand. A sweep [`StreamCache::declare`]s
//! how many of its cells will consume each key and acquires through the
//! returned [`StreamDemand`]; every such acquire counts against that
//! demand. A producer with no other declared consumer publishes nothing
//! (it generates for itself alone), and a shared stream is unlinked as
//! soon as its last declared consumer has acquired it — subscribers
//! already reading keep their `Arc`s until they finish.
//! [`StreamDemand::forgo`] withdraws a declared consumer that will never
//! acquire (a cell answered by a run cache), and dropping the guard gives
//! back whatever demand is still unacquired (a sweep that unwound early).
//!
//! An *undeclared* acquire ([`StreamCache::acquire`]) keeps least-
//! recently-used retention: the stream stays until the byte budget forces
//! it out. For every stream the budget is a cap: completed streams are
//! evicted least-recently-used once the cache exceeds it. Unlinking and
//! eviction only remove a stream from the cache — cells still holding
//! its chunks keep them alive until they finish — so neither can corrupt
//! an in-flight cell; they only forfeit future sharing.
//!
//! [`Fingerprintable`]: pcs_des::Fingerprintable

use crate::generator::TimedPacket;
use crate::source::{Chunk, PacketSource};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// 128-bit content address of a stream: the finished fingerprint of the
/// full generator configuration plus rate and per-repeat seed.
pub type StreamKey = (u64, u64);

/// Default byte budget for resident cached streams (1 GiB).
pub const DEFAULT_STREAM_CACHE_BYTES: u64 = 1 << 30;

/// Resident bytes of one chunk (packets are inline, no heap payload).
pub fn chunk_bytes(chunk: &Chunk) -> u64 {
    (chunk.len() * std::mem::size_of::<TimedPacket>()) as u64
}

/// The stream bytes one owner — typically one sweep execution — holds
/// resident in a [`StreamCache`]: the current level and its high-water
/// mark. Other owners' streams never count, however the cache is shared.
#[derive(Debug, Default)]
pub struct RetainedBytes {
    current: AtomicU64,
    peak: AtomicU64,
}

impl RetainedBytes {
    /// Bytes this owner currently has resident in the cache.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of [`RetainedBytes::current`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Raise the high-water mark to at least `bytes`, a level observed
    /// outside this accounting.
    pub fn note_peak(&self, bytes: u64) {
        self.peak.fetch_max(bytes, Ordering::Relaxed);
    }

    fn add(&self, bytes: u64) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.note_peak(now);
    }

    fn sub(&self, bytes: u64) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Shared publication state of one stream.
struct StreamState {
    /// Published chunks still held; `chunks[0]` is chunk number `base`.
    chunks: VecDeque<Chunk>,
    base: usize,
    /// Next chunk number of every subscriber; `None` once dropped.
    cursors: Vec<Option<usize>>,
    /// Gone from the cache: no subscriber can join any more, so chunks
    /// every live subscriber has read are released.
    unlinked: bool,
    /// The producer finished (or abandoned) the stream.
    done: bool,
    /// The producer was dropped before the stream completed; subscribers
    /// must fail loudly instead of treating the prefix as the stream.
    abandoned: bool,
}

impl StreamState {
    /// Drop the chunks no live subscriber will read again. A stream
    /// still in the cache stays whole for subscribers yet to join.
    fn release_read(&mut self) {
        if !self.unlinked {
            return;
        }
        let end = self.base + self.chunks.len();
        let keep_from = self.cursors.iter().flatten().copied().min().unwrap_or(end);
        while self.base < keep_from {
            self.chunks.pop_front();
            self.base += 1;
        }
    }
}

struct SharedStream {
    state: Mutex<StreamState>,
    progress: Condvar,
}

impl SharedStream {
    fn new() -> SharedStream {
        SharedStream {
            state: Mutex::new(StreamState {
                chunks: VecDeque::new(),
                base: 0,
                cursors: Vec::new(),
                unlinked: false,
                done: false,
                abandoned: false,
            }),
            progress: Condvar::new(),
        }
    }

    /// Nothing panics while holding this lock and every update leaves
    /// the state valid, so even a poisoned guard is sound to use (a
    /// subscriber's `Drop` must not panic).
    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A new reader from the first chunk (only while still cached).
    fn subscribe(self: &Arc<Self>) -> StreamSubscriber {
        let mut state = self.lock();
        state.cursors.push(Some(0));
        StreamSubscriber {
            stream: Arc::clone(self),
            id: state.cursors.len() - 1,
        }
    }

    fn unlink(&self) {
        let mut state = self.lock();
        state.unlinked = true;
        state.release_read();
    }
}

/// One cache slot: the stream plus the bookkeeping eviction needs.
struct CacheEntry {
    stream: Arc<SharedStream>,
    /// Bytes published so far (final size once `done`).
    bytes: u64,
    /// Completed streams are evictable; in-progress ones are pinned.
    done: bool,
    /// LRU clock value of the most recent acquire.
    last_used: u64,
    /// Set when published for declared consumers: whose retained bytes
    /// the stream counts toward, and it is unlinked once no declared
    /// consumer is left. Otherwise it stays until the budget evicts it.
    owner: Option<Arc<RetainedBytes>>,
}

#[derive(Default)]
struct CacheMap {
    entries: HashMap<StreamKey, CacheEntry>,
    /// Declared consumers per key that have not acquired yet.
    demand: HashMap<StreamKey, u64>,
    clock: u64,
}

impl CacheMap {
    /// Withdraw `n` declared consumers of `key`; returns how many remain.
    fn withdraw(&mut self, key: StreamKey, n: u64) -> u64 {
        let Some(pending) = self.demand.get_mut(&key) else {
            return 0;
        };
        *pending = pending.saturating_sub(n);
        let left = *pending;
        if left == 0 {
            self.demand.remove(&key);
        }
        left
    }
}

/// What [`StreamCache::acquire`] hands the caller: either the duty to
/// generate (and thereby publish), or a subscription to chunks someone
/// else is generating or has generated.
pub enum StreamRole<'a> {
    /// No stream at this key yet — the caller must generate it, routing
    /// every chunk through the publisher.
    Produce(StreamPublisher<'a>),
    /// The stream exists (possibly still being generated) — consume the
    /// published chunks instead of regenerating.
    Subscribe(StreamSubscriber),
}

/// A content-addressed cache of generated packet streams.
pub struct StreamCache {
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
}

impl Default for StreamCache {
    fn default() -> StreamCache {
        StreamCache::new()
    }
}

impl StreamCache {
    /// A fresh, empty cache.
    pub fn new() -> StreamCache {
        StreamCache {
            map: Mutex::new(CacheMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// The process-global cache every streaming cell consults.
    pub fn global() -> &'static StreamCache {
        static GLOBAL: OnceLock<StreamCache> = OnceLock::new();
        GLOBAL.get_or_init(StreamCache::new)
    }

    /// Acquire the stream at `key` without declared demand: the first
    /// caller becomes the producer, everyone else a subscriber, and the
    /// published stream stays until LRU eviction. `budget_bytes` is the
    /// resident-byte bound enforced (by evicting completed streams) while
    /// this acquisition publishes.
    pub fn acquire(&self, key: StreamKey, budget_bytes: u64) -> StreamRole<'_> {
        self.acquire_as(key, budget_bytes, None)
    }

    /// Declare one future consumer per item of `keys` (repeat a key once
    /// per consuming cell). Acquire through the returned guard, which
    /// accepts only the keys declared here; streams it publishes count
    /// toward `retained`.
    pub fn declare(
        &self,
        keys: impl IntoIterator<Item = StreamKey>,
        retained: Arc<RetainedBytes>,
    ) -> StreamDemand<'_> {
        let mut unused: HashMap<StreamKey, u64> = HashMap::new();
        for key in keys {
            *unused.entry(key).or_default() += 1;
        }
        let mut map = self.lock();
        for (&key, &n) in &unused {
            *map.demand.entry(key).or_default() += n;
        }
        drop(map);
        StreamDemand {
            cache: self,
            unused: Mutex::new(unused),
            retained,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheMap> {
        self.map.lock().expect("stream cache poisoned")
    }

    /// Acquire `key`, as a declared consumer charged to `owner` when one
    /// is given.
    fn acquire_as(
        &self,
        key: StreamKey,
        budget_bytes: u64,
        owner: Option<&Arc<RetainedBytes>>,
    ) -> StreamRole<'_> {
        let declared = owner.is_some();
        let mut map = self.lock();
        map.clock += 1;
        let clock = map.clock;
        // Declared consumers still to come after this one.
        let others = if declared { map.withdraw(key, 1) } else { 0 };
        if let Some(entry) = map.entries.get_mut(&key) {
            entry.last_used = clock;
            let subscriber = entry.stream.subscribe();
            if declared && others == 0 && entry.owner.is_some() {
                self.unlink(&mut map, key);
            }
            drop(map);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return StreamRole::Subscribe(subscriber);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The sole remaining declared consumer generates for itself and
        // retains nothing.
        let stream = (!declared || others > 0).then(|| {
            let stream = Arc::new(SharedStream::new());
            map.entries.insert(
                key,
                CacheEntry {
                    stream: Arc::clone(&stream),
                    bytes: 0,
                    done: false,
                    last_used: clock,
                    owner: owner.cloned(),
                },
            );
            stream
        });
        StreamRole::Produce(StreamPublisher {
            cache: self,
            key,
            stream,
            budget_bytes,
        })
    }

    /// Give back `n` declared consumers of `key` that never acquired it;
    /// a stream published for declared consumers alone goes with the
    /// last of them.
    fn release(&self, key: StreamKey, n: u64) {
        // Called from `StreamDemand::drop`, which must not panic; every
        // update of the map leaves it valid.
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if map.withdraw(key, n) == 0 && map.entries.get(&key).is_some_and(|e| e.owner.is_some()) {
            self.unlink(&mut map, key);
        }
    }

    /// Streams served by subscription instead of regeneration.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Streams that had to be generated.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes of stream data currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`StreamCache::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Number of streams currently in the cache (including in-progress).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no streams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove `key` from the cache and from its owner's retained bytes.
    fn unlink(&self, map: &mut CacheMap, key: StreamKey) {
        if let Some(entry) = map.entries.remove(&key) {
            entry.stream.unlink();
            self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
            if let Some(owner) = &entry.owner {
                owner.sub(entry.bytes);
            }
        }
    }

    /// The entry at `key`, if it still holds `stream` (and not a later
    /// stream published under the same key after this one was unlinked).
    fn entry_of<'m>(
        map: &'m mut CacheMap,
        key: StreamKey,
        stream: &Arc<SharedStream>,
    ) -> Option<&'m mut CacheEntry> {
        map.entries
            .get_mut(&key)
            .filter(|e| Arc::ptr_eq(&e.stream, stream))
    }

    /// Account `bytes` of newly published stream data against `key`.
    fn note_published(
        &self,
        key: StreamKey,
        stream: &Arc<SharedStream>,
        bytes: u64,
        budget_bytes: u64,
    ) {
        let mut map = self.lock();
        if let Some(entry) = Self::entry_of(&mut map, key, stream) {
            entry.bytes += bytes;
            if let Some(owner) = &entry.owner {
                owner.add(bytes);
            }
            let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
            self.peak_resident.fetch_max(now, Ordering::Relaxed);
            self.trim(&mut map, budget_bytes);
        }
    }

    /// Mark `key` complete (evictable) and enforce the byte budget, or —
    /// when `abandoned` — unlink it so later cells regenerate.
    fn note_done(
        &self,
        key: StreamKey,
        stream: &Arc<SharedStream>,
        abandoned: bool,
        budget_bytes: u64,
    ) {
        let mut map = self.lock();
        let Some(entry) = Self::entry_of(&mut map, key, stream) else {
            return;
        };
        if abandoned {
            self.unlink(&mut map, key);
            return;
        }
        entry.done = true;
        self.trim(&mut map, budget_bytes);
    }

    /// Evict completed streams, least recently used first, until resident
    /// bytes fit the budget. In-progress streams never move; cells still
    /// holding an evicted stream's chunks keep them alive on their own.
    fn trim(&self, map: &mut CacheMap, budget_bytes: u64) {
        while self.resident.load(Ordering::Relaxed) > budget_bytes {
            let victim = map
                .entries
                .iter()
                .filter(|(_, e)| e.done)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(key) => self.unlink(map, key),
                None => break, // only pinned in-progress streams remain
            }
        }
    }
}

/// The declared consumers of one sweep: every acquire through it counts
/// against the demand [`StreamCache::declare`] registered, and so does
/// every [`StreamDemand::forgo`]. Dropping it gives back whatever is left.
pub struct StreamDemand<'a> {
    cache: &'a StreamCache,
    /// Declared consumers per key that have not acquired through this
    /// guard yet.
    unused: Mutex<HashMap<StreamKey, u64>>,
    retained: Arc<RetainedBytes>,
}

impl<'a> StreamDemand<'a> {
    /// [`StreamCache::acquire`] as one of this guard's declared
    /// consumers of `key`; published bytes count toward the guard's
    /// [`RetainedBytes`].
    ///
    /// # Panics
    ///
    /// If `key` has no declared consumer left: the guard would otherwise
    /// retain a stream nobody declared.
    pub fn acquire(&self, key: StreamKey, budget_bytes: u64) -> StreamRole<'a> {
        self.take(key);
        self.cache
            .acquire_as(key, budget_bytes, Some(&self.retained))
    }

    /// Withdraw one declared consumer of `key` that will never acquire
    /// it (its cell was answered elsewhere); a stream published for
    /// declared consumers alone goes with the last of them.
    ///
    /// # Panics
    ///
    /// If `key` has no declared consumer left.
    pub fn forgo(&self, key: StreamKey) {
        self.take(key);
        self.cache.release(key, 1);
    }

    /// Count one of this guard's declared consumers of `key` as served.
    fn take(&self, key: StreamKey) {
        let mut unused = self.unused.lock().expect("stream demand poisoned");
        match unused.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => panic!("stream {key:?} has no declared consumer left"),
        }
    }
}

impl Drop for StreamDemand<'_> {
    fn drop(&mut self) {
        let unused = std::mem::take(
            self.unused
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (key, n) in unused {
            if n > 0 {
                self.cache.release(key, n);
            }
        }
    }
}

/// The producing side of one cached stream. Obtained from
/// [`StreamCache::acquire`]; normally driven through
/// [`PublishingSource`], which tees a generator's chunks into it.
pub struct StreamPublisher<'a> {
    cache: &'a StreamCache,
    key: StreamKey,
    /// `None` once complete, or from the start when no other consumer
    /// is declared: then nothing is published.
    stream: Option<Arc<SharedStream>>,
    budget_bytes: u64,
}

impl StreamPublisher<'_> {
    /// Whether other consumers subscribe to what this publisher publishes.
    pub fn is_shared(&self) -> bool {
        self.stream.is_some()
    }

    /// Publish one generated chunk to every subscriber.
    pub fn publish(&mut self, chunk: &Chunk) {
        let Some(stream) = &self.stream else {
            return;
        };
        {
            let mut state = stream.lock();
            state.chunks.push_back(Arc::clone(chunk));
            state.release_read();
        }
        stream.progress.notify_all();
        self.cache
            .note_published(self.key, stream, chunk_bytes(chunk), self.budget_bytes);
    }

    /// Mark the stream complete: subscribers observe end of stream once
    /// they drain the published chunks.
    pub fn finish(mut self) {
        self.complete(false);
    }

    fn complete(&mut self, abandoned: bool) {
        let Some(stream) = self.stream.take() else {
            return;
        };
        {
            let mut state = stream.lock();
            state.done = true;
            state.abandoned = abandoned;
        }
        stream.progress.notify_all();
        self.cache
            .note_done(self.key, &stream, abandoned, self.budget_bytes);
    }
}

impl Drop for StreamPublisher<'_> {
    fn drop(&mut self) {
        // A producer dropped mid-stream (panic unwinding a cell) must not
        // leave subscribers waiting forever or, worse, let them mistake
        // the published prefix for the whole stream.
        self.complete(true);
    }
}

/// A [`PacketSource`] that tees every chunk of an inner source into a
/// [`StreamPublisher`] — how the producing cell generates for itself and
/// for every subscriber at once.
pub struct PublishingSource<'a, S: PacketSource> {
    inner: S,
    publisher: Option<StreamPublisher<'a>>,
}

impl<'a, S: PacketSource> PublishingSource<'a, S> {
    /// Tee `inner` through `publisher`.
    pub fn new(inner: S, publisher: StreamPublisher<'a>) -> PublishingSource<'a, S> {
        PublishingSource {
            inner,
            publisher: Some(publisher),
        }
    }
}

impl<S: PacketSource> PacketSource for PublishingSource<'_, S> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        match self.inner.next_chunk() {
            Some(chunk) => {
                if let Some(publisher) = &mut self.publisher {
                    publisher.publish(&chunk);
                }
                Some(chunk)
            }
            None => {
                if let Some(publisher) = self.publisher.take() {
                    publisher.finish();
                }
                None
            }
        }
    }
}

/// The consuming side of one cached stream: a [`PacketSource`] over the
/// published chunks, blocking only while it is caught up with a still-
/// publishing producer.
pub struct StreamSubscriber {
    stream: Arc<SharedStream>,
    /// This subscriber's slot in the stream's cursors.
    id: usize,
}

impl PacketSource for StreamSubscriber {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let mut state = self.stream.lock();
        loop {
            let next = state.cursors[self.id].expect("live subscriber");
            if let Some(chunk) = state.chunks.get(next - state.base) {
                let chunk = Arc::clone(chunk);
                state.cursors[self.id] = Some(next + 1);
                state.release_read();
                return Some(chunk);
            }
            if state.done {
                let abandoned = state.abandoned;
                drop(state);
                assert!(
                    !abandoned,
                    "stream cache producer abandoned its stream mid-publication"
                );
                return None;
            }
            state = self
                .stream
                .progress
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for StreamSubscriber {
    fn drop(&mut self) {
        let mut state = self.stream.lock();
        state.cursors[self.id] = None;
        state.release_read();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, TxModel};
    use crate::procfs::PktgenConfig;
    use crate::source::{ChunkedGenerator, SourcePackets};

    fn gen(count: u64, seed: u64) -> ChunkedGenerator {
        ChunkedGenerator::new(
            Generator::new(
                PktgenConfig {
                    count,
                    ..PktgenConfig::default()
                },
                TxModel::syskonnect(),
                seed,
            ),
            128,
        )
    }

    fn drain(mut source: impl PacketSource) -> Vec<Chunk> {
        let mut out = Vec::new();
        while let Some(c) = source.next_chunk() {
            out.push(c);
        }
        out
    }

    #[test]
    fn first_acquire_produces_second_subscribes_to_identical_chunks() {
        let cache = StreamCache::new();
        let key = (1, 1);
        let produced = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(1_000, 7), p)),
            StreamRole::Subscribe(_) => panic!("empty cache must elect a producer"),
        };
        let subscribed = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(_) => panic!("published stream must be subscribable"),
            StreamRole::Subscribe(s) => drain(s),
        };
        assert_eq!(produced.len(), subscribed.len());
        for (a, b) in produced.iter().zip(&subscribed) {
            assert!(
                Arc::ptr_eq(a, b),
                "shared chunks must be the same allocation"
            );
            assert_eq!(a, b);
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.resident_bytes(), bytes);
        assert_eq!(cache.peak_resident_bytes(), bytes);
    }

    #[test]
    fn concurrent_subscriber_overlaps_the_producer() {
        let cache = StreamCache::new();
        let key = (2, 2);
        let publisher = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let subscriber = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(_) => unreachable!(),
            StreamRole::Subscribe(s) => s,
        };
        let reference: Vec<_> = SourcePackets::new(gen(2_000, 9)).collect();
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || SourcePackets::new(subscriber).collect::<Vec<_>>());
            let produced = drain(PublishingSource::new(gen(2_000, 9), publisher));
            assert!(!produced.is_empty());
            let consumed = consumer.join().expect("subscriber thread");
            assert_eq!(consumed, reference);
        });
    }

    #[test]
    fn lru_eviction_keeps_residency_within_budget() {
        let cache = StreamCache::new();
        // Publish two streams under a budget that fits only one.
        let first = match cache.acquire((3, 1), u64::MAX) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(600, 1), p)),
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let first_bytes: u64 = first.iter().map(chunk_bytes).sum();
        let budget = first_bytes + first_bytes / 2;
        match cache.acquire((3, 2), budget) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(600, 2), p)),
            StreamRole::Subscribe(_) => unreachable!(),
        };
        // The older stream was evicted; the newer one is resident.
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() <= budget);
        match cache.acquire((3, 1), budget) {
            StreamRole::Produce(_) => {} // evicted => regenerate
            StreamRole::Subscribe(_) => panic!("evicted stream must not be subscribable"),
        };
    }

    #[test]
    #[should_panic(expected = "abandoned")]
    fn abandoned_producer_fails_subscribers_loudly() {
        let cache = StreamCache::new();
        let publisher = match cache.acquire((5, 1), u64::MAX) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let subscriber = match cache.acquire((5, 1), u64::MAX) {
            StreamRole::Produce(_) => unreachable!(),
            StreamRole::Subscribe(s) => s,
        };
        drop(publisher); // producer dies before finishing
        assert!(cache.is_empty(), "abandoned stream must be unlinked");
        drain(subscriber);
    }

    fn produce<'a>(role: StreamRole<'a>) -> StreamPublisher<'a> {
        match role {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => panic!("expected to produce"),
        }
    }

    fn subscribe(role: StreamRole<'_>) -> StreamSubscriber {
        match role {
            StreamRole::Produce(_) => panic!("expected to subscribe"),
            StreamRole::Subscribe(s) => s,
        }
    }

    #[test]
    fn sole_declared_consumer_publishes_nothing() {
        let cache = StreamCache::new();
        let retained = Arc::new(RetainedBytes::default());
        let demand = cache.declare([(7, 1)], Arc::clone(&retained));
        let publisher = produce(demand.acquire((7, 1), u64::MAX));
        assert!(
            cache.is_empty(),
            "no other consumer: nothing to publish into"
        );
        let produced = drain(PublishingSource::new(gen(1_000, 3), publisher));
        assert!(!produced.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.peak_resident_bytes(), 0);
        assert_eq!((retained.current(), retained.peak()), (0, 0));
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
    }

    #[test]
    fn declared_stream_is_unlinked_after_its_last_consumer_acquires() {
        let cache = StreamCache::new();
        let key = (8, 1);
        let retained = Arc::new(RetainedBytes::default());
        let demand = cache.declare([key; 3], Arc::clone(&retained));
        let publisher = produce(demand.acquire(key, u64::MAX));
        // An in-flight subscriber, reading while the producer publishes.
        let early = subscribe(demand.acquire(key, u64::MAX));
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || drain(early));
            let mut source = PublishingSource::new(gen(3_000, 5), publisher);
            let first = source.next_chunk().expect("non-empty stream");
            assert_eq!(cache.len(), 1, "a third consumer is still declared");
            assert_eq!(retained.current(), chunk_bytes(&first));
            // The third and last declared consumer unlinks the stream
            // mid-publication; both subscribers still see all of it.
            let late = subscribe(demand.acquire(key, u64::MAX));
            assert!(cache.is_empty(), "no declared consumer left");
            assert_eq!(cache.resident_bytes(), 0);
            assert_eq!(retained.current(), 0);
            let mut produced = vec![first];
            produced.extend(drain(source));
            let read_late = drain(late);
            let read_early = reader.join().expect("subscriber thread");
            for read in [read_early, read_late] {
                assert_eq!(read.len(), produced.len());
                for (a, b) in produced.iter().zip(&read) {
                    assert!(Arc::ptr_eq(a, b));
                }
            }
        });
        assert_eq!((cache.misses(), cache.hits()), (1, 2), "generated once");
        assert!(retained.peak() > 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn unlinked_stream_releases_chunks_its_subscribers_have_read() {
        let cache = StreamCache::new();
        let key = (12, 1);
        let demand = cache.declare([key; 2], Arc::new(RetainedBytes::default()));
        let produced = drain(PublishingSource::new(
            gen(1_000, 8),
            produce(demand.acquire(key, u64::MAX)),
        ));
        assert!(produced.len() >= 4);
        // Still cached: a later subscriber must find every chunk.
        let mut last = subscribe(demand.acquire(key, u64::MAX));
        assert!(cache.is_empty(), "the last declared consumer unlinked it");
        let held = |s: &StreamSubscriber| s.stream.lock().chunks.len();
        assert_eq!(held(&last), produced.len());
        for (i, chunk) in produced.iter().enumerate() {
            assert!(Arc::ptr_eq(chunk, &last.next_chunk().expect("chunk")));
            assert_eq!(held(&last), produced.len() - i - 1);
        }
        assert!(last.next_chunk().is_none());
    }

    #[test]
    fn dropping_the_guard_releases_unacquired_demand() {
        let cache = StreamCache::new();
        let key = (9, 1);
        let retained = Arc::new(RetainedBytes::default());
        let demand = cache.declare([key; 4], Arc::clone(&retained));
        // Two consumers acquire; the other two never will (the sweep
        // unwound before their cells ran).
        drain(PublishingSource::new(
            gen(500, 2),
            produce(demand.acquire(key, u64::MAX)),
        ));
        drain(subscribe(demand.acquire(key, u64::MAX)));
        assert_eq!(cache.len(), 1, "two declared consumers still pending");
        assert!(retained.current() > 0);
        drop(demand);
        assert!(cache.is_empty(), "released demand unlinks the stream");
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(retained.current(), 0);
        assert!(cache.lock().demand.is_empty(), "no demand left behind");
        // With no demand left, a later declared sole consumer regenerates.
        let again = cache.declare([key], Arc::clone(&retained));
        drain(PublishingSource::new(
            gen(500, 2),
            produce(again.acquire(key, u64::MAX)),
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn forgone_demand_leaves_with_the_last_real_consumer() {
        let cache = StreamCache::new();
        let key = (13, 1);
        let retained = Arc::new(RetainedBytes::default());
        let demand = cache.declare([key; 4], Arc::clone(&retained));
        // One consumer was answered by a run cache before anyone acquired.
        demand.forgo(key);
        let produced = drain(PublishingSource::new(
            gen(500, 6),
            produce(demand.acquire(key, u64::MAX)),
        ));
        assert_eq!(cache.len(), 1, "two declared consumers still pending");
        assert!(retained.current() > 0);
        drain(subscribe(demand.acquire(key, u64::MAX)));
        assert_eq!(cache.len(), 1);
        // The last pending consumer is answered elsewhere too: the stream
        // goes now, not when the guard drops.
        demand.forgo(key);
        assert!(cache.is_empty());
        assert_eq!((cache.resident_bytes(), retained.current()), (0, 0));
        assert_eq!(retained.peak(), produced.iter().map(chunk_bytes).sum());
        // A sole real consumer among forgone ones publishes nothing.
        let other = (13, 2);
        let demand = cache.declare([other; 3], Arc::clone(&retained));
        demand.forgo(other);
        demand.forgo(other);
        let publisher = produce(demand.acquire(other, u64::MAX));
        assert!(!publisher.is_shared());
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "no declared consumer left")]
    fn guard_rejects_keys_it_did_not_declare() {
        let cache = StreamCache::new();
        let demand = cache.declare([(14, 1)], Arc::new(RetainedBytes::default()));
        drop(demand.acquire((14, 1), u64::MAX));
        drop(demand.acquire((14, 1), u64::MAX));
    }

    #[test]
    fn undeclared_acquire_keeps_lru_retention() {
        let cache = StreamCache::new();
        let produced = drain(PublishingSource::new(
            gen(700, 4),
            produce(cache.acquire((10, 1), u64::MAX)),
        ));
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.len(), 1, "no consumer declared: the stream stays");
        assert_eq!(cache.resident_bytes(), bytes);
        // Later acquires subscribe to it, and publish for later ones.
        drain(subscribe(cache.acquire((10, 1), u64::MAX)));
        drain(subscribe(cache.acquire((10, 1), u64::MAX)));
        drain(PublishingSource::new(
            gen(700, 5),
            produce(cache.acquire((10, 2), u64::MAX)),
        ));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 2 * bytes);
        // Only the budget makes them go, least recently used first.
        drain(PublishingSource::new(
            gen(700, 6),
            produce(cache.acquire((10, 3), 2 * bytes)),
        ));
        assert_eq!(cache.len(), 2);
        drain(subscribe(cache.acquire((10, 2), u64::MAX)));
        produce(cache.acquire((10, 1), u64::MAX)); // the LRU victim
    }

    #[test]
    fn in_progress_stream_stays_pinned_under_eviction() {
        let cache = StreamCache::new();
        let key = (15, 1);
        let mut publisher = produce(cache.acquire(key, 1));
        let chunk = gen(300, 2).next_chunk().expect("chunk");
        assert!(chunk_bytes(&chunk) > 1);
        // One chunk already exceeds the one-byte budget, but the stream
        // is still being generated: nothing may evict it.
        publisher.publish(&chunk);
        assert_eq!(cache.len(), 1, "in-progress stream stays pinned");
        assert_eq!(cache.resident_bytes(), chunk_bytes(&chunk));
        let subscriber = subscribe(cache.acquire(key, 1));
        publisher.finish();
        // Once complete it is evictable, and the budget evicts it; its
        // subscriber still reads every chunk.
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        let read = drain(subscriber);
        assert_eq!(read.len(), 1);
        assert!(Arc::ptr_eq(&read[0], &chunk));
    }

    #[test]
    #[should_panic(expected = "abandoned")]
    fn abandoned_producer_with_pending_demand_fails_subscribers_loudly() {
        let cache = StreamCache::new();
        let key = (11, 1);
        let retained = Arc::new(RetainedBytes::default());
        let demand = cache.declare([key; 3], Arc::clone(&retained));
        let mut publisher = produce(demand.acquire(key, u64::MAX));
        let subscriber = subscribe(demand.acquire(key, u64::MAX));
        let chunk = gen(300, 1).next_chunk().expect("chunk");
        publisher.publish(&chunk);
        assert!(retained.current() > 0);
        drop(publisher); // dies with one declared consumer still pending
        assert!(cache.is_empty(), "abandoned stream must be unlinked");
        assert_eq!(retained.current(), 0);
        drain(subscriber);
    }

    #[test]
    fn empty_stream_round_trips() {
        let cache = StreamCache::new();
        match cache.acquire((6, 1), u64::MAX) {
            StreamRole::Produce(p) => {
                assert!(drain(PublishingSource::new(gen(0, 1), p)).is_empty())
            }
            StreamRole::Subscribe(_) => unreachable!(),
        };
        match cache.acquire((6, 1), u64::MAX) {
            StreamRole::Produce(_) => panic!("empty stream is still a published stream"),
            StreamRole::Subscribe(s) => assert!(drain(s).is_empty()),
        };
    }
}
