//! In-process file buffers with an explicit cold/warm switch and an
//! overlapped (chunk-streamed) cold path.
//!
//! The paper memory-maps raw files and relies on the OS page cache; cold
//! runs flush the file system caches, warm runs reuse them — and, crucially,
//! mmap'd scans *overlap* I/O with processing: early pages fault in and are
//! tokenized while later pages are still on disk. Reproducing the page cache
//! faithfully would make experiments depend on host state, so RAW-rs
//! replaces it with an explicit pool, and reproduces the overlap explicitly:
//!
//! - **Warm**: files live in the pool as shared [`FileBytes`] buffers;
//!   repeated reads hit the pool and cost nothing.
//! - **Cold, blocking** ([`FileBufferPool::read`]): the whole file is read
//!   before the call returns — the pre-streaming model, still the serial
//!   engine's path and the baseline the equivalence suites compare against.
//! - **Cold, streamed** ([`FileBufferPool::read_streaming`]): a dedicated
//!   reader thread fills the buffer in fixed-size chunks (the
//!   `read_chunk_bytes` / `RAW_READ_CHUNK_BYTES` knob) and publishes each
//!   chunk's completion through [`ChunkedFileBuffer`]; consumers call
//!   [`ChunkedFileBuffer::wait_available`] for the byte ranges they are
//!   about to scan, so early morsels run while later chunks are still on
//!   disk. `read` on an in-flight path joins the stream (waits for full
//!   availability) instead of issuing a second disk read, keeping the
//!   `bytes_from_disk` and hit/miss counters identical to the blocking
//!   path.
//!
//! All scan paths go through this layer, so cold-run experiments charge the
//! read (and the pool counts bytes read from disk for reporting).
//!
//! The single-writer chunk protocol, its one happens-before edge, and the
//! `checked`-build shadow sanitizer are documented normatively in the
//! repo-root `CONCURRENCY.md`.
//!
//! ## The cold/warm model, post-streaming
//!
//! "Cold" now means *chunk-streamed*, not whole-file-blocking: a cold
//! parallel run's reader thread and scan workers proceed concurrently, and
//! only [`FileBufferPool::read`]'s contract ("the returned bytes are fully
//! resident") forces a full wait. The buffer identity rules are unchanged:
//! one path has at most one live buffer, every consumer shares it, and a
//! completed stream publishes into the warm pool — unless an
//! [`insert`](FileBufferPool::insert) raced it, in which case the insert
//! wins (see `read_streaming` for the full race contract).

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use raw_trace::EngineMetrics;

use crate::error::{FormatError, Result};
use crate::rzb::{self, RzbDecoder};

/// Shared, immutable-once-published bytes of one file.
pub type FileBytes = Arc<FileBuf>;

/// Build a [`FileBytes`] from owned bytes (tests, generated datasets).
pub fn file_bytes(data: Vec<u8>) -> FileBytes {
    Arc::new(FileBuf::from(data))
}

/// The byte storage behind [`FileBytes`].
///
/// Behaves as `[u8]` (via `Deref`) for every consumer. The bytes live in
/// `UnsafeCell`s for exactly one writer: a [`ChunkedFileBuffer`]'s reader
/// thread, which fills chunks in place before publishing their completion
/// through the chunk state (a `Mutex` release/acquire pair, so completed
/// bytes happen-before any reader that waited on them). Cell-per-byte
/// storage keeps the writer's `&mut` views confined to the chunk being
/// filled — never the whole buffer. Safety protocol:
///
/// - only the owning reader thread ever writes, and only to chunks it has
///   not yet marked complete;
/// - consumers read only byte ranges whose covering chunks are complete
///   (enforced by `wait_available` / the availability-gated scheduler);
/// - once every chunk is complete (or for buffers built from a `Vec`),
///   the bytes are immutable forever.
///
/// Residual caveat, shared with the `mmap` model this layer stands in
/// for: `Deref` hands out a whole-buffer `&[u8]`, so during an in-flight
/// stream a consumer's slice *spans* unpublished bytes it must not read.
/// The protocol prevents any dynamic race on bytes actually accessed, but
/// a whole-span shared slice coexisting with the writer's chunk `&mut` is
/// not something the strictest aliasing models bless — exactly the
/// long-standing status of `&[u8]` over a concurrently-faulted mmap. A
/// fully blessed design would thread ensured-range views through every
/// scan operator; revisit if tooling starts exploiting it.
pub struct FileBuf {
    data: Box<[UnsafeCell<u8>]>,
    /// `checked`-build shadow write states (see [`shadow`]).
    #[cfg(feature = "checked")]
    shadow: shadow::ShadowState,
}

/// The `checked` build's homegrown write sanitizer for [`FileBuf`] (this
/// offline toolchain has no Miri/TSan): a shadow per-chunk state machine
/// **Unwritten → Writing → Published** maintained alongside the real
/// bytes. `chunk_mut` asserts exclusive writership (one writer thread,
/// no overlap with in-flight or published chunks), `complete_chunk`
/// records publication, and the gated read paths
/// ([`ChunkedFileBuffer::wait_available`] /
/// [`ChunkedFileBuffer::is_available`]) cross-check the chunk
/// bookkeeping's "resident" answer against the shadow — catching a
/// buffer whose bookkeeping and actual writes ever disagree. The shadow
/// lock is independent of the production protocol, so enabling it
/// cannot mask an ordering bug by accident; it only adds aborts.
#[cfg(feature = "checked")]
mod shadow {
    use std::ops::Range;
    use std::thread::{self, ThreadId};

    use parking_lot::Mutex;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum WriteState {
        Writing,
        Published,
    }

    #[derive(Debug)]
    struct Span {
        start: usize,
        end: usize,
        state: WriteState,
    }

    /// Shadow write-state for one buffer. Bytes covered by no span are
    /// Unwritten; spans are created by writes (Writing) or publication
    /// (Published, directly for manual buffers that publish zero-filled
    /// chunks without writing).
    pub(super) struct ShadowState {
        inner: Mutex<Inner>,
    }

    struct Inner {
        spans: Vec<Span>,
        writer: Option<ThreadId>,
        /// Multi-writer mode (rzb block decode): many threads may write,
        /// each to its own exclusive span. Only the one-thread assert is
        /// relaxed — overlap and write-after-publish still abort.
        multi_writer: bool,
    }

    impl ShadowState {
        /// All `len` bytes Published — warm buffers built from owned
        /// bytes (`From<Vec<u8>>`) were never partially written.
        pub(super) fn published(len: usize) -> ShadowState {
            let spans = if len > 0 {
                vec![Span { start: 0, end: len, state: WriteState::Published }]
            } else {
                Vec::new()
            };
            ShadowState { inner: Mutex::new(Inner { spans, writer: None, multi_writer: false }) }
        }

        /// Reset every byte to Unwritten — a streaming target starts
        /// blank and must be written and published chunk by chunk.
        pub(super) fn reset_unwritten(&self) {
            let mut inner = self.inner.lock();
            inner.spans.clear();
            inner.writer = None;
        }

        /// Switch to multi-writer mode (see [`Inner::multi_writer`]).
        pub(super) fn allow_multi_writer(&self) {
            self.inner.lock().multi_writer = true;
        }

        /// `chunk_mut` entry: record `range` as Writing, asserting the
        /// single-writer protocol.
        pub(super) fn begin_write(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let mut inner = self.inner.lock();
            let me = thread::current().id();
            if !inner.multi_writer {
                match inner.writer {
                    Some(writer) => assert!(
                        writer == me,
                        "checked: second writer thread {me:?} (after {writer:?}) — the chunk protocol allows exactly one writer per buffer"
                    ),
                    None => inner.writer = Some(me),
                }
            }
            for s in &inner.spans {
                assert!(
                    range.end <= s.start || s.end <= range.start,
                    "checked: write of {range:?} overlaps {:?} chunk {}..{} — published bytes are immutable and in-flight writes are exclusive",
                    s.state,
                    s.start,
                    s.end
                );
            }
            inner.spans.push(Span {
                start: range.start,
                end: range.end,
                state: WriteState::Writing,
            });
        }

        /// `complete_chunk` entry: mark `range` Published. Valid from
        /// Writing (the reader thread's write→publish step) and from
        /// Unwritten (manual buffers publish zero-filled chunks).
        pub(super) fn publish(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let mut inner = self.inner.lock();
            if let Some(s) =
                inner.spans.iter_mut().find(|s| s.start == range.start && s.end == range.end)
            {
                s.state = WriteState::Published;
                return;
            }
            for s in &inner.spans {
                assert!(
                    range.end <= s.start || s.end <= range.start,
                    "checked: publish of {range:?} partially overlaps shadow chunk {}..{} — publication must match the write grid",
                    s.start,
                    s.end
                );
            }
            inner.spans.push(Span {
                start: range.start,
                end: range.end,
                state: WriteState::Published,
            });
        }

        /// Gated-read entry: every byte of `range` must be Published.
        pub(super) fn assert_resident(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let inner = self.inner.lock();
            let mut published: Vec<(usize, usize)> = inner
                .spans
                .iter()
                .filter(|s| s.state == WriteState::Published)
                .map(|s| (s.start, s.end))
                .collect();
            published.sort_unstable();
            let mut covered = range.start;
            for (start, end) in published {
                if start > covered {
                    break;
                }
                covered = covered.max(end);
                if covered >= range.end {
                    break;
                }
            }
            assert!(
                covered >= range.end,
                "checked: gated read of {range:?} reaches unpublished byte {covered} — chunk bookkeeping says resident, shadow write states disagree"
            );
        }
    }
}

// SAFETY: `FileBuf` owns its bytes; sending it (or an `Arc` of it) to
// another thread moves plain `u8` storage with no thread-affine state.
unsafe impl Send for FileBuf {}
// SAFETY: mutation happens only through `chunk_mut`, whose caller must be
// the buffer's single writer; every other access is read-only and gated
// on chunk completion, with the mutex+condvar in `ChunkedFileBuffer`
// providing the write→read happens-before edge (see CONCURRENCY.md).
unsafe impl Sync for FileBuf {}

impl FileBuf {
    /// A zero-filled buffer of `len` bytes (the streaming reader's target).
    fn zeroed(len: usize) -> FileBuf {
        let buf = FileBuf::from(vec![0u8; len]);
        // A streaming target starts blank: every chunk must be written and
        // published before gated reads may see it.
        #[cfg(feature = "checked")]
        buf.shadow.reset_unwritten();
        buf
    }

    /// Relax the `checked` shadow to multi-writer mode for this buffer:
    /// the rzb block decoder legitimately writes from many worker
    /// threads, one exclusive block span each. Overlap and
    /// write-after-publish checks stay armed.
    #[cfg(feature = "checked")]
    pub(crate) fn allow_multi_writer(&self) {
        self.shadow.allow_multi_writer();
    }

    /// Writable view of `range`, for the buffer's writer(s) only: the
    /// streaming reader thread, or — for an rzb decoded buffer — the
    /// worker holding the block's exclusive Decoding claim.
    ///
    /// # Safety
    /// The caller must hold exclusive write rights to `range` under the
    /// chunk protocol (single writer, or one claimed block per thread in
    /// the decoder's multi-writer extension) and must not have published
    /// (marked complete) any chunk overlapping `range`.
    // The &self → &mut shape is the point: the writer mutates through
    // the cells while readers hold the same Arc, under the protocol
    // documented on the type; the &mut covers only the unpublished range.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn chunk_mut(&self, range: Range<usize>) -> &mut [u8] {
        #[cfg(feature = "checked")]
        self.shadow.begin_write(range.clone());
        let cells = &self.data[range];
        std::slice::from_raw_parts_mut(cells.as_ptr() as *mut u8, cells.len())
    }
}

impl std::ops::Deref for FileBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `UnsafeCell<u8>` is layout-identical to `u8`. Readers
        // only dereference byte positions whose chunks are complete (see
        // the type-level protocol); completed bytes are never written
        // again.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len()) }
    }
}

impl From<Vec<u8>> for FileBuf {
    fn from(data: Vec<u8>) -> FileBuf {
        #[cfg(feature = "checked")]
        let len = data.len();
        let raw = Box::into_raw(data.into_boxed_slice());
        FileBuf {
            // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so
            // the boxed slice can be reinterpreted in place — no copy. `raw`
            // comes from `Box::into_raw` on this same allocation, and the
            // cast preserves both element layout and slice length, so
            // `Box::from_raw` reclaims exactly the allocation it was given.
            data: unsafe { Box::from_raw(raw as *mut [UnsafeCell<u8>]) },
            #[cfg(feature = "checked")]
            shadow: shadow::ShadowState::published(len),
        }
    }
}

impl std::fmt::Debug for FileBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FileBuf({} bytes)", self.len())
    }
}

/// Where a streaming read's bytes come from: the production implementation
/// is a plain file ([`FileChunkSource`]); tests inject throttled or failing
/// sources to prove overlap and error propagation deterministically.
pub trait ChunkSource: Send + 'static {
    /// Fill `dst` with the file bytes at `offset`. Called sequentially,
    /// in offset order, by the single reader thread.
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()>;
}

/// [`ChunkSource`] over a real file.
pub struct FileChunkSource {
    file: std::fs::File,
}

impl FileChunkSource {
    /// Open `path` for chunked reading.
    pub fn open(path: &Path) -> std::io::Result<FileChunkSource> {
        Ok(FileChunkSource { file: std::fs::File::open(path)? })
    }
}

impl ChunkSource for FileChunkSource {
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(dst)
    }
}

/// A failure recorded by the reader thread, replayed to every waiter.
#[derive(Debug, Clone)]
struct StreamFailure {
    kind: std::io::ErrorKind,
    message: String,
}

#[derive(Debug, Default)]
struct ChunkState {
    /// Per-chunk completion flags.
    done: Vec<bool>,
    /// Number of `true` entries in `done` (cheap all-complete check).
    completed: usize,
    /// Bytes covered by completed chunks — the "partial prefix" a failed
    /// stream reports to the metrics registry.
    bytes_done: u64,
    /// Set once by the reader on I/O failure; terminal.
    failed: Option<StreamFailure>,
}

/// A file buffer being filled in fixed-size chunks by a reader thread,
/// with per-chunk completion tracking and a `wait_available` primitive.
///
/// The chunk grid tiles the file exactly once: chunk `i` covers bytes
/// `i*chunk_bytes .. min((i+1)*chunk_bytes, len)`. Consumers wait on byte
/// ranges; the buffer resolves them to covering chunks. A reader failure is
/// terminal and surfaces as [`FormatError::Io`] to every current and future
/// waiter — no waiter hangs, none sees partial data as success.
pub struct ChunkedFileBuffer {
    bytes: FileBytes,
    chunk_bytes: usize,
    path: PathBuf,
    state: Mutex<ChunkState>,
    available: Condvar,
    /// Byte counter credited as chunks complete (the pool's
    /// `bytes_from_disk`): a successful stream charges exactly the file
    /// length, like a blocking read, while a failed stream charges only
    /// what was actually read. `None` for manual/warm buffers.
    charge: Option<Arc<AtomicU64>>,
    /// Engine-lifetime observability: chunk completions, blocking
    /// chunk-waits, and terminal stream failures (with the partial byte
    /// prefix) are recorded here. `None` for manual/warm buffers and
    /// pools without a registry.
    metrics: Option<Arc<EngineMetrics>>,
}

impl std::fmt::Debug for ChunkedFileBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "ChunkedFileBuffer({} bytes, {}/{} chunks, failed: {})",
            self.bytes.len(),
            st.completed,
            st.done.len(),
            st.failed.is_some()
        )
    }
}

impl ChunkedFileBuffer {
    /// Number of chunks a `len`-byte file splits into at `chunk_bytes` per
    /// chunk (0 for an empty file).
    pub fn chunk_count(len: usize, chunk_bytes: usize) -> usize {
        len.div_ceil(chunk_bytes.max(1))
    }

    /// The half-open byte range of chunk `i` in a `len`-byte file.
    pub fn chunk_span(len: usize, chunk_bytes: usize, i: usize) -> Range<usize> {
        let chunk_bytes = chunk_bytes.max(1);
        (i * chunk_bytes).min(len)..((i + 1) * chunk_bytes).min(len)
    }

    /// A buffer with no reader thread whose chunks are completed manually
    /// via [`ChunkedFileBuffer::complete_chunk`] — the test seam behind the
    /// chunk-bookkeeping proptests and the scheduler's overlap proofs.
    pub fn new_manual(
        path: impl Into<PathBuf>,
        len: usize,
        chunk_bytes: usize,
    ) -> ChunkedFileBuffer {
        let chunk_bytes = chunk_bytes.max(1);
        ChunkedFileBuffer {
            bytes: Arc::new(FileBuf::zeroed(len)),
            chunk_bytes,
            path: path.into(),
            state: Mutex::new(ChunkState {
                done: vec![false; ChunkedFileBuffer::chunk_count(len, chunk_bytes)],
                completed: 0,
                bytes_done: 0,
                failed: None,
            }),
            available: Condvar::new(),
            charge: None,
            metrics: None,
        }
    }

    /// Wrap already-resident bytes as a fully-complete buffer (warm hits).
    pub fn completed(
        path: impl Into<PathBuf>,
        bytes: FileBytes,
        chunk_bytes: usize,
    ) -> ChunkedFileBuffer {
        let chunk_bytes = chunk_bytes.max(1);
        let chunks = ChunkedFileBuffer::chunk_count(bytes.len(), chunk_bytes);
        let bytes_done = bytes.len() as u64;
        ChunkedFileBuffer {
            bytes,
            chunk_bytes,
            path: path.into(),
            state: Mutex::new(ChunkState {
                done: vec![true; chunks],
                completed: chunks,
                bytes_done,
                failed: None,
            }),
            available: Condvar::new(),
            charge: None,
            metrics: None,
        }
    }

    /// Start a streaming read: allocate the buffer and spawn the dedicated
    /// reader thread pulling `len` bytes from `source` chunk by chunk.
    pub fn spawn(
        path: impl Into<PathBuf>,
        source: impl ChunkSource,
        len: usize,
        chunk_bytes: usize,
    ) -> Arc<ChunkedFileBuffer> {
        ChunkedFileBuffer::spawn_charged(path, source, len, chunk_bytes, None)
    }

    /// [`ChunkedFileBuffer::spawn`] with a byte counter credited per
    /// completed chunk (the pool's `bytes_from_disk` accounting), so a
    /// failed stream charges only the bytes actually read.
    pub fn spawn_charged(
        path: impl Into<PathBuf>,
        source: impl ChunkSource,
        len: usize,
        chunk_bytes: usize,
        charge: Option<Arc<AtomicU64>>,
    ) -> Arc<ChunkedFileBuffer> {
        ChunkedFileBuffer::spawn_observed(path, source, len, chunk_bytes, charge, None)
    }

    /// [`ChunkedFileBuffer::spawn_charged`] with an engine-metrics handle:
    /// chunk completions, blocking waits, and terminal failures (with the
    /// completed byte prefix) are recorded into the registry as they
    /// happen.
    pub fn spawn_observed(
        path: impl Into<PathBuf>,
        mut source: impl ChunkSource,
        len: usize,
        chunk_bytes: usize,
        charge: Option<Arc<AtomicU64>>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> Arc<ChunkedFileBuffer> {
        let mut buf = ChunkedFileBuffer::new_manual(path, len, chunk_bytes);
        buf.charge = charge;
        buf.metrics = metrics;
        let buf = Arc::new(buf);
        let reader = Arc::clone(&buf);
        std::thread::spawn(move || {
            for i in 0..ChunkedFileBuffer::chunk_count(len, reader.chunk_bytes) {
                let span = ChunkedFileBuffer::chunk_span(len, reader.chunk_bytes, i);
                // SAFETY: this thread is the single writer and chunk `i` is
                // not yet complete (chunks complete in order, below).
                let dst = unsafe { reader.bytes.chunk_mut(span.clone()) };
                match source.read_chunk(span.start as u64, dst) {
                    Ok(()) => reader.complete_chunk(i),
                    Err(e) => {
                        reader.fail(e);
                        return;
                    }
                }
            }
        });
        buf
    }

    /// The underlying shared bytes. Full deref is only sound once the
    /// ranges being read are available — schedule against
    /// [`ChunkedFileBuffer::wait_available`].
    pub fn bytes(&self) -> &FileBytes {
        &self.bytes
    }

    /// Total file length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == 0
    }

    /// The configured chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Mark chunk `i` complete and wake waiters (reader thread; manual
    /// buffers' tests). Completing a chunk twice is a no-op.
    ///
    /// This is the **publication point** of the single-writer protocol
    /// (CONCURRENCY.md): the reader thread's writes to the chunk's bytes
    /// precede this call in program order, and the mutex hand-off below
    /// carries them to every consumer.
    pub fn complete_chunk(&self, i: usize) {
        // ORDERING: the mutex release at the end of this critical section
        // pairs with the acquire in `wait_available` / `is_available` —
        // a consumer that observes `done[i] == true` under the lock also
        // observes every byte the writer stored before publishing (write
        // → release → acquire → read). This lock hand-off is the
        // protocol's ONLY happens-before edge; no raw atomic ordering is
        // involved (the `charge` counter below is an independent Relaxed
        // statistic, see trace::metrics).
        let mut st = self.state.lock();
        if let Some(flag) = st.done.get_mut(i) {
            if !*flag {
                *flag = true;
                st.completed += 1;
                let span = ChunkedFileBuffer::chunk_span(self.bytes.len(), self.chunk_bytes, i);
                #[cfg(feature = "checked")]
                self.bytes.shadow.publish(span.clone());
                st.bytes_done += span.len() as u64;
                if let Some(charge) = &self.charge {
                    charge.fetch_add(span.len() as u64, Ordering::Relaxed);
                }
                if let Some(m) = &self.metrics {
                    m.chunk_completed(span.len() as u64);
                }
            }
        }
        drop(st);
        self.available.notify_all();
    }

    /// Record a terminal reader failure and wake every waiter. The metrics
    /// registry (when attached) records the failure together with the
    /// partial byte prefix the stream had completed — fault observability,
    /// not just propagation.
    pub fn fail(&self, error: std::io::Error) {
        let mut st = self.state.lock();
        if st.failed.is_none() {
            st.failed = Some(StreamFailure { kind: error.kind(), message: error.to_string() });
            if let Some(m) = &self.metrics {
                m.stream_failed(st.bytes_done);
            }
        }
        drop(st);
        self.available.notify_all();
    }

    fn covering_chunks(&self, range: &Range<usize>) -> Range<usize> {
        let len = self.bytes.len();
        let start = range.start.min(len);
        let end = range.end.min(len);
        if start >= end {
            return 0..0;
        }
        (start / self.chunk_bytes)..(end - 1) / self.chunk_bytes + 1
    }

    fn failure_error(&self, f: &StreamFailure) -> FormatError {
        FormatError::io(&self.path, std::io::Error::new(f.kind, f.message.clone()))
    }

    /// Block until every chunk covering `range` (clamped to the file) is
    /// complete, or surface the reader's I/O failure. Never returns `Ok`
    /// before the covering chunks have all completed.
    ///
    /// A call that actually blocks charges one `chunk_waits` event (and the
    /// blocked nanoseconds) to the attached metrics registry; a call whose
    /// range is already resident charges nothing — so the counter measures
    /// real overlap stalls, not polling traffic.
    pub fn wait_available(&self, range: Range<usize>) -> Result<()> {
        let chunks = self.covering_chunks(&range);
        // ORDERING: this lock acquire (and each reacquire inside the
        // condvar wait) pairs with the release in `complete_chunk`;
        // observing `done[i]` here is what makes reading chunk `i`'s
        // bytes race-free after we return `Ok`.
        let mut st = self.state.lock();
        let mut blocked_at: Option<Instant> = None;
        let outcome = loop {
            if let Some(f) = &st.failed {
                break Err(self.failure_error(f));
            }
            if chunks.clone().all(|i| st.done[i]) {
                break Ok(());
            }
            blocked_at.get_or_insert_with(Instant::now);
            self.available.wait(&mut st);
        };
        drop(st);
        if let (Some(m), Some(t0)) = (&self.metrics, blocked_at) {
            m.chunk_wait(t0.elapsed().as_nanos() as u64);
        }
        // Cross-check the bookkeeping's "resident" answer against the
        // shadow write states: the covering bytes must actually have been
        // published, not merely flagged done.
        #[cfg(feature = "checked")]
        if outcome.is_ok() {
            let len = self.bytes.len();
            self.bytes.shadow.assert_resident(range.start.min(len)..range.end.min(len));
        }
        outcome
    }

    /// Non-blocking availability probe for `range` (clamped to the file).
    /// A failed stream reports `false` — the range will never arrive.
    pub fn is_available(&self, range: Range<usize>) -> bool {
        let chunks = self.covering_chunks(&range);
        let st = self.state.lock();
        let available = st.failed.is_none() && chunks.clone().all(|i| st.done[i]);
        drop(st);
        // Same shadow cross-check as `wait_available`: an affirmative
        // availability answer promises published bytes.
        #[cfg(feature = "checked")]
        if available {
            let len = self.bytes.len();
            self.bytes.shadow.assert_resident(range.start.min(len)..range.end.min(len));
        }
        available
    }

    /// Number of chunks completed so far.
    pub fn chunks_completed(&self) -> usize {
        self.state.lock().completed
    }

    /// Whether every chunk has completed (the reader is finished).
    pub fn is_complete(&self) -> bool {
        let st = self.state.lock();
        st.completed == st.done.len() && st.failed.is_none()
    }

    /// Whether the reader failed.
    pub fn is_failed(&self) -> bool {
        self.state.lock().failed.is_some()
    }

    /// Block until the whole file is resident and return the shared bytes —
    /// the bridge back to [`FileBufferPool::read`] semantics.
    pub fn wait_all(&self) -> Result<FileBytes> {
        self.wait_available(0..self.bytes.len())?;
        Ok(Arc::clone(&self.bytes))
    }
}

/// One warm-map entry: the resident bytes plus the LRU clock stamp of
/// the last access.
#[derive(Debug)]
struct PoolEntry {
    bytes: FileBytes,
    last_used: u64,
}

/// A pool of file buffers: the stand-in for `mmap` + OS page cache.
///
/// The warm map is bounded by a byte budget (mirroring `ShredPool`'s
/// policy): when resident warm bytes exceed
/// [`FileBufferPool::set_budget_bytes`], least-recently-used entries are
/// evicted — never the entry just served — and each eviction is counted.
/// The default budget is unlimited, preserving the historical behavior
/// for pools that never set one. In-flight streams and decoders are
/// transient and not subject to the budget.
#[derive(Debug)]
pub struct FileBufferPool {
    buffers: Mutex<HashMap<PathBuf, PoolEntry>>,
    /// Streaming reads in flight (or completed but not yet published —
    /// publication happens lazily when the next access observes
    /// completion).
    streams: Mutex<HashMap<PathBuf, Arc<ChunkedFileBuffer>>>,
    /// Parallel rzb decodes in flight (same lazy-publication lifecycle
    /// as `streams`, holding compressed + decoded buffers).
    decoders: Mutex<HashMap<PathBuf, Arc<RzbDecoder>>>,
    /// Shared with each stream's reader thread, which credits it per
    /// completed chunk.
    bytes_from_disk: Arc<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Warm-map byte budget; `u64::MAX` means unlimited (the default).
    budget_bytes: AtomicU64,
    /// LRU clock, bumped on every warm-map touch.
    clock: AtomicU64,
    /// Warm-map entries evicted by the byte budget.
    evictions: AtomicU64,
    /// Engine-lifetime registry mirroring the pool counters and tracking
    /// the resident-buffer gauge. Set at construction
    /// ([`FileBufferPool::with_metrics`]); `None` means unobserved (the
    /// pool's own counters still work).
    metrics: Option<Arc<EngineMetrics>>,
}

impl Default for FileBufferPool {
    fn default() -> FileBufferPool {
        FileBufferPool {
            buffers: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            decoders: Mutex::new(HashMap::new()),
            bytes_from_disk: Arc::new(AtomicU64::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget_bytes: AtomicU64::new(u64::MAX),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: None,
        }
    }
}

impl FileBufferPool {
    /// An empty pool.
    pub fn new() -> FileBufferPool {
        FileBufferPool::default()
    }

    /// An empty pool recording into `metrics`: every hit/miss/disk-byte the
    /// pool counts is mirrored into the registry, streams spawned by this
    /// pool record chunk completions / waits / failures, and the
    /// `resident_bytes` gauge tracks the bytes held by the warm map plus
    /// in-flight streams (peak kept in `peak_resident_bytes`).
    pub fn with_metrics(metrics: Arc<EngineMetrics>) -> FileBufferPool {
        FileBufferPool { metrics: Some(metrics), ..FileBufferPool::default() }
    }

    /// One pool hit: the pool's own counter plus the registry mirror.
    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.file_hit();
        }
    }

    /// One pool miss: the pool's own counter plus the registry mirror.
    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.file_miss();
        }
    }

    /// Gauge bookkeeping: `n` buffer bytes entered a pool map.
    fn gauge_add(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.resident_add(n as u64);
        }
    }

    /// Gauge bookkeeping: `n` buffer bytes left a pool map.
    fn gauge_sub(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.resident_sub(n as u64);
        }
    }

    /// Next LRU clock stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Set the warm-map byte budget (`u64::MAX` = unlimited). Takes
    /// effect on the next insert; already-resident bytes are not
    /// retroactively evicted.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Warm-map entries evicted by the byte budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Serve `path` from the warm map, stamping the LRU clock.
    fn warm_hit(&self, path: &Path) -> Option<FileBytes> {
        let mut buffers = self.buffers.lock();
        let entry = buffers.get_mut(path)?;
        entry.last_used = self.tick();
        let bytes = Arc::clone(&entry.bytes);
        drop(buffers);
        self.count_hit();
        Some(bytes)
    }

    /// The byte-budget LRU sweep: evict least-recently-used warm entries
    /// (never `keep`, the entry just served) until the warm map fits the
    /// budget, keeping the resident-byte gauge consistent per eviction.
    fn enforce_budget(&self, keep: &Path) {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return;
        }
        let mut buffers = self.buffers.lock();
        let mut total: u64 = buffers.values().map(|e| e.bytes.len() as u64).sum();
        while total > budget {
            let victim = buffers
                .iter()
                .filter(|(p, _)| p.as_path() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(p, _)| p.clone());
            let Some(victim) = victim else { break };
            if let Some(old) = buffers.remove(&victim) {
                total -= old.bytes.len() as u64;
                self.gauge_sub(old.bytes.len());
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.file_evicted();
                }
            }
        }
    }

    /// Fetch the bytes of `path`, reading from disk on first access. The
    /// returned bytes are fully resident: a streaming read (or parallel
    /// rzb decode) in flight for `path` is joined (waited to completion)
    /// rather than duplicated, so one cold access costs exactly one disk
    /// read no matter how callers mix `read` and the streaming entries.
    ///
    /// For an `.rzb` path the returned bytes are the *decoded* payload;
    /// `bytes_from_disk` charges the compressed file length — what was
    /// actually read — on both the blocking and streamed paths.
    pub fn read(&self, path: &Path) -> Result<FileBytes> {
        if let Some(buf) = self.warm_hit(path) {
            return Ok(buf);
        }
        if let Some(dec) = self.decoder_for(path) {
            return match dec.wait_all() {
                Ok(bytes) => {
                    self.count_hit();
                    Ok(self.publish_decoder(path, &dec, bytes))
                }
                Err(e) => {
                    self.drop_failed_decoder(path, &dec);
                    Err(e)
                }
            };
        }
        if let Some(stream) = self.stream_for(path) {
            let bytes = match stream.wait_all() {
                Ok(bytes) => bytes,
                Err(e) => {
                    self.drop_failed_stream(path, &stream);
                    return Err(e);
                }
            };
            self.count_hit();
            return Ok(self.publish_stream(path, &stream, bytes));
        }
        if rzb::is_rzb_path(path) {
            return self.read_rzb_blocking(path);
        }
        let data = std::fs::read(path).map_err(|e| FormatError::io(path, e))?;
        self.publish_cold_read(path, data.len() as u64, data)
    }

    /// Blocking cold read of an `.rzb` container: read the compressed
    /// file, decompress every block (CRC-verified), and publish the
    /// decoded bytes under the container path. Charges the *compressed*
    /// length — the bytes that actually crossed the disk.
    fn read_rzb_blocking(&self, path: &Path) -> Result<FileBytes> {
        let data = std::fs::read(path).map_err(|e| FormatError::io(path, e))?;
        let index = rzb::parse_index(&data)?;
        let decoded = rzb::decompress_all(&data, &index, self.metrics.as_deref())?;
        self.publish_cold_read(path, data.len() as u64, decoded)
    }

    /// Shared tail of the blocking cold paths: insert-wins re-check,
    /// charge, publish, budget sweep.
    fn publish_cold_read(&self, path: &Path, disk_bytes: u64, data: Vec<u8>) -> Result<FileBytes> {
        // Two workers can both find the pool cold and read the same file;
        // re-check under the lock so the first insert wins, every caller
        // shares that buffer, and the losing read is discarded — served from
        // the pool, so counted as a hit, with no second disk read charged.
        // Counters stay consistent: one miss per charged read.
        let mut buffers = self.buffers.lock();
        if let Some(existing) = buffers.get_mut(path) {
            existing.last_used = self.tick();
            let bytes = Arc::clone(&existing.bytes);
            drop(buffers);
            self.count_hit();
            return Ok(bytes);
        }
        self.count_miss();
        self.bytes_from_disk.fetch_add(disk_bytes, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.disk_bytes(disk_bytes);
        }
        let buf = file_bytes(data);
        buffers.insert(
            path.to_path_buf(),
            PoolEntry { bytes: Arc::clone(&buf), last_used: self.tick() },
        );
        self.gauge_add(buf.len());
        drop(buffers);
        self.enforce_budget(path);
        Ok(buf)
    }

    /// Start (or join) a chunk-streamed read of `path`: returns immediately
    /// with the in-flight [`ChunkedFileBuffer`], whose bytes fill in the
    /// background in `chunk_bytes`-sized units.
    ///
    /// - A warm path returns an already-complete buffer (counted as a hit,
    ///   like `read`).
    /// - A stream already in flight for `path` is shared (hit) — one disk
    ///   read, one buffer, identical counters to the blocking path.
    /// - Otherwise the stream starts: one miss, `len` bytes charged.
    ///
    /// **Race contract with [`FileBufferPool::insert`]:** if `insert(path,
    /// …)` lands while a stream of the same path is in flight, the *insert
    /// wins* — it is served to every subsequent `read`/`read_streaming`,
    /// and the completed stream declines to publish over it. Holders of the
    /// in-flight buffer keep their (internally consistent) bytes; the pool
    /// never exposes two live buffers for one path going forward.
    pub fn read_streaming(
        &self,
        path: &Path,
        chunk_bytes: usize,
    ) -> Result<Arc<ChunkedFileBuffer>> {
        if rzb::is_rzb_path(path) {
            // An `.rzb` container's raw byte stream is useless to scan
            // consumers, and a decoded buffer nobody decodes into would
            // gate-wait forever — serve fully decoded bytes instead. The
            // planner's overlapped compressed cold path goes through
            // `read_rzb_streaming`.
            let bytes = self.read(path)?;
            return Ok(Arc::new(ChunkedFileBuffer::completed(path, bytes, chunk_bytes)));
        }
        if let Some(buf) = self.warm_hit(path) {
            return Ok(Arc::new(ChunkedFileBuffer::completed(path, buf, chunk_bytes)));
        }
        if let Some(stream) = self.stream_for(path) {
            if stream.is_failed() {
                // Terminal: drop it so the retry below starts fresh.
                self.drop_failed_stream(path, &stream);
            } else if stream.is_complete() {
                // Lazily publish to the warm pool and serve the winner.
                self.count_hit();
                let bytes = self.publish_stream(path, &stream, Arc::clone(stream.bytes()));
                return Ok(Arc::new(ChunkedFileBuffer::completed(path, bytes, chunk_bytes)));
            } else {
                self.count_hit();
                return Ok(stream);
            }
        }
        // Open and stat before taking the streams lock — blocking I/O must
        // not stall unrelated streams — then re-check under the lock, like
        // `read` does for the warm map: the first starter wins and later
        // racers join its stream.
        let source = FileChunkSource::open(path).map_err(|e| FormatError::io(path, e))?;
        let len = std::fs::metadata(path).map_err(|e| FormatError::io(path, e))?.len() as usize;
        let mut streams = self.streams.lock();
        if let Some(existing) = streams.get(path) {
            if !existing.is_failed() {
                self.count_hit();
                return Ok(Arc::clone(existing));
            }
            streams.remove(path);
        }
        // A racing publisher may have moved a completed stream of this path
        // into the warm map (and retired it) since the checks above: serve
        // that, rather than reading the file a second time.
        if let Some(buf) = self.warm_hit(path) {
            return Ok(Arc::new(ChunkedFileBuffer::completed(path, buf, chunk_bytes)));
        }
        // The reader thread credits `bytes_from_disk` per completed chunk:
        // a successful stream charges exactly `len` (identical to the
        // blocking path), a failed one only what it actually read.
        self.count_miss();
        let stream = ChunkedFileBuffer::spawn_observed(
            path,
            source,
            len,
            chunk_bytes,
            Some(Arc::clone(&self.bytes_from_disk)),
            self.metrics.clone(),
        );
        streams.insert(path.to_path_buf(), Arc::clone(&stream));
        self.gauge_add(len);
        Ok(stream)
    }

    /// Account one consumer served from an in-flight streaming buffer it
    /// already holds (the planner handing the stream's bytes to a morsel
    /// pipeline). Equivalent to the pool hit the blocking path would have
    /// charged for the same access, keeping cold-streaming and
    /// cold-blocking counters identical.
    pub fn note_stream_hit(&self) {
        self.count_hit();
    }

    fn stream_for(&self, path: &Path) -> Option<Arc<ChunkedFileBuffer>> {
        self.streams.lock().get(path).map(Arc::clone)
    }

    fn decoder_for(&self, path: &Path) -> Option<Arc<RzbDecoder>> {
        self.decoders.lock().get(path).map(Arc::clone)
    }

    /// Start (or join) an overlapped cold read of an `.rzb` container:
    /// the returned [`RzbDecoder`] streams *compressed* bytes off disk
    /// on a reader thread while availability gates decode blocks into
    /// the uncompressed-coordinate buffer on whichever workers need
    /// them. The counter contract matches `read_streaming`: warm = hit,
    /// in-flight join = hit, fresh start = one miss charging the
    /// compressed length as chunks complete. The index peek (tail →
    /// footer → header, three small reads) is uncharged — the stream
    /// charges the full compressed file including those bytes.
    pub fn read_rzb_streaming(&self, path: &Path, chunk_bytes: usize) -> Result<Arc<RzbDecoder>> {
        if let Some(buf) = self.warm_hit(path) {
            return Ok(RzbDecoder::completed(path, buf));
        }
        if let Some(dec) = self.decoder_for(path) {
            if dec.is_failed() {
                // Terminal: drop it so the retry below starts fresh.
                self.drop_failed_decoder(path, &dec);
            } else if dec.is_complete() {
                // Lazily publish the decoded bytes and serve the winner.
                self.count_hit();
                let bytes = self.publish_decoder(path, &dec, Arc::clone(dec.decoded().bytes()));
                return Ok(RzbDecoder::completed(path, bytes));
            } else {
                self.count_hit();
                return Ok(dec);
            }
        }
        // Index peek + open before taking the decoders lock (blocking
        // I/O must not stall unrelated paths), then re-check under the
        // lock: the first starter wins and later racers join.
        let (source, index) = rzb::CompressedChunkSource::open(path)?;
        let mut decoders = self.decoders.lock();
        if let Some(existing) = decoders.get(path) {
            if !existing.is_failed() {
                let joined = Arc::clone(existing);
                drop(decoders);
                self.count_hit();
                return Ok(joined);
            }
            let dead = Arc::clone(existing);
            decoders.remove(path);
            self.gauge_sub(dead.compressed_len() + dead.len());
        }
        // As in `read_streaming`: a racing publisher may have moved a
        // completed decoder's bytes into the warm map since the checks above.
        if let Some(buf) = self.warm_hit(path) {
            return Ok(RzbDecoder::completed(path, buf));
        }
        self.count_miss();
        let compressed = ChunkedFileBuffer::spawn_observed(
            path,
            source,
            index.file_len(),
            chunk_bytes,
            Some(Arc::clone(&self.bytes_from_disk)),
            self.metrics.clone(),
        );
        let dec = RzbDecoder::new(path, index, compressed, self.metrics.clone());
        decoders.insert(path.to_path_buf(), Arc::clone(&dec));
        // Both buffers are resident while the decode is in flight.
        self.gauge_add(dec.compressed_len() + dec.len());
        Ok(dec)
    }

    /// Move a completed decoder's decoded bytes into the warm pool —
    /// the decoder counterpart of [`FileBufferPool::publish_stream`],
    /// with the same insert-wins rule. The compressed buffer leaves the
    /// gauge; the decoded bytes move (or leave, if an insert won).
    fn publish_decoder(&self, path: &Path, dec: &Arc<RzbDecoder>, bytes: FileBytes) -> FileBytes {
        let mut buffers = self.buffers.lock();
        // Same gauge rule as `publish_stream`: bytes a racing publisher of
        // this decoder already moved stay resident.
        let (winner, moved) = match buffers.get_mut(path) {
            Some(existing) => {
                existing.last_used = self.tick();
                (Arc::clone(&existing.bytes), Arc::ptr_eq(&existing.bytes, &bytes))
            }
            None => {
                buffers.insert(
                    path.to_path_buf(),
                    PoolEntry { bytes: Arc::clone(&bytes), last_used: self.tick() },
                );
                (bytes, true)
            }
        };
        drop(buffers);
        let mut decoders = self.decoders.lock();
        if let Some(current) = decoders.get(path) {
            if Arc::ptr_eq(current, dec) {
                decoders.remove(path);
                let decoded = if moved { 0 } else { dec.len() };
                self.gauge_sub(dec.compressed_len() + decoded);
            }
        }
        drop(decoders);
        self.enforce_budget(path);
        winner
    }

    /// Forget a failed decoder so the next read retries from scratch.
    fn drop_failed_decoder(&self, path: &Path, dec: &Arc<RzbDecoder>) {
        let mut decoders = self.decoders.lock();
        if let Some(current) = decoders.get(path) {
            if Arc::ptr_eq(current, dec) {
                decoders.remove(path);
                self.gauge_sub(dec.compressed_len() + dec.len());
            }
        }
    }

    /// Move a completed stream's bytes into the warm pool. The insert-wins
    /// rule: if a buffer is already registered for `path` (an `insert`
    /// raced the stream), that buffer stays and is returned.
    fn publish_stream(
        &self,
        path: &Path,
        stream: &Arc<ChunkedFileBuffer>,
        bytes: FileBytes,
    ) -> FileBytes {
        let mut buffers = self.buffers.lock();
        // Gauge: when the stream's bytes become the warm buffer this is a
        // *move* between maps (no add, no sub — the bytes stay resident),
        // also when a racing publisher of the same stream moved them first;
        // when an insert already won, the stream's superseded bytes leave
        // the gauge with the stream entry below.
        let (winner, moved) = match buffers.get_mut(path) {
            Some(existing) => {
                existing.last_used = self.tick();
                (Arc::clone(&existing.bytes), Arc::ptr_eq(&existing.bytes, &bytes))
            }
            None => {
                buffers.insert(
                    path.to_path_buf(),
                    PoolEntry { bytes: Arc::clone(&bytes), last_used: self.tick() },
                );
                (bytes, true)
            }
        };
        drop(buffers);
        let mut streams = self.streams.lock();
        if let Some(current) = streams.get(path) {
            if Arc::ptr_eq(current, stream) {
                streams.remove(path);
                if !moved {
                    self.gauge_sub(stream.len());
                }
            }
        }
        drop(streams);
        self.enforce_budget(path);
        winner
    }

    /// Forget a failed stream so the next read retries from scratch.
    fn drop_failed_stream(&self, path: &Path, stream: &Arc<ChunkedFileBuffer>) {
        let mut streams = self.streams.lock();
        if let Some(current) = streams.get(path) {
            if Arc::ptr_eq(current, stream) {
                streams.remove(path);
                self.gauge_sub(stream.len());
            }
        }
    }

    /// Register in-memory bytes for `path` without touching disk (tests and
    /// generated-on-the-fly datasets). Wins over any streaming read of the
    /// same path currently in flight (see [`FileBufferPool::read_streaming`]).
    pub fn insert(&self, path: impl Into<PathBuf>, data: Vec<u8>) -> FileBytes {
        let path = path.into();
        let buf = file_bytes(data);
        let entry = PoolEntry { bytes: Arc::clone(&buf), last_used: self.tick() };
        if let Some(old) = self.buffers.lock().insert(path.clone(), entry) {
            self.gauge_sub(old.bytes.len());
        }
        self.gauge_add(buf.len());
        // Forget any stream or decoder for the path: with the insert in the
        // warm map no access would ever reach it again, so keeping it would
        // pin the whole in-flight buffer for the pool's lifetime. Its
        // holders keep their bytes; its reader thread finishes into the
        // dropped buffer.
        if let Some(stream) = self.streams.lock().remove(&path) {
            self.gauge_sub(stream.len());
        }
        if let Some(dec) = self.decoders.lock().remove(&path) {
            self.gauge_sub(dec.compressed_len() + dec.len());
        }
        self.enforce_budget(&path);
        buf
    }

    /// Drop one file's buffer (next read is cold). An in-flight stream or
    /// decoder for the path is forgotten too (its holders keep their
    /// bytes).
    pub fn evict(&self, path: &Path) {
        if let Some(old) = self.buffers.lock().remove(path) {
            self.gauge_sub(old.bytes.len());
        }
        if let Some(stream) = self.streams.lock().remove(path) {
            self.gauge_sub(stream.len());
        }
        if let Some(dec) = self.decoders.lock().remove(path) {
            self.gauge_sub(dec.compressed_len() + dec.len());
        }
    }

    /// Drop everything: the "cold caches" switch for experiments.
    pub fn evict_all(&self) {
        let mut buffers = self.buffers.lock();
        let dropped: usize = buffers.values().map(|e| e.bytes.len()).sum();
        buffers.clear();
        drop(buffers);
        self.gauge_sub(dropped);
        let mut streams = self.streams.lock();
        let dropped: usize = streams.values().map(|s| s.len()).sum();
        streams.clear();
        drop(streams);
        self.gauge_sub(dropped);
        let mut decoders = self.decoders.lock();
        let dropped: usize = decoders.values().map(|d| d.compressed_len() + d.len()).sum();
        decoders.clear();
        drop(decoders);
        self.gauge_sub(dropped);
    }

    /// Whether `path` is currently buffered (i.e. a read would be warm).
    /// A completed-but-unpublished stream or decoder counts as warm — and
    /// is published on observation, so the answer stays truthful
    /// afterwards too.
    pub fn is_warm(&self, path: &Path) -> bool {
        if self.buffers.lock().contains_key(path) {
            return true;
        }
        if let Some(dec) = self.decoder_for(path) {
            if dec.is_complete() {
                self.publish_decoder(path, &dec, Arc::clone(dec.decoded().bytes()));
                return true;
            }
            return false;
        }
        match self.stream_for(path) {
            Some(stream) if stream.is_complete() => {
                self.publish_stream(path, &stream, Arc::clone(stream.bytes()));
                true
            }
            _ => false,
        }
    }

    /// Total bytes read from disk since construction.
    pub fn bytes_from_disk(&self) -> u64 {
        self.bytes_from_disk.load(Ordering::Relaxed)
    }

    /// (pool hits, pool misses) since construction.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, content: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("raw_fbp_{}_{name}", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path
    }

    #[test]
    fn read_caches_and_counts() {
        let path = temp_file("a.csv", b"1,2,3\n");
        let pool = FileBufferPool::new();
        let b1 = pool.read(&path).unwrap();
        assert_eq!(&b1[..], b"1,2,3\n");
        assert_eq!(pool.bytes_from_disk(), 6);
        assert!(pool.is_warm(&path));

        let b2 = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "second read shares the buffer");
        assert_eq!(pool.bytes_from_disk(), 6, "no second disk read");
        assert_eq!(pool.hit_miss(), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evict_makes_cold() {
        let path = temp_file("b.csv", b"xy");
        let pool = FileBufferPool::new();
        pool.read(&path).unwrap();
        pool.evict(&path);
        assert!(!pool.is_warm(&path));
        pool.read(&path).unwrap();
        assert_eq!(pool.bytes_from_disk(), 4, "read twice from disk");
        pool.evict_all();
        assert!(!pool.is_warm(&path));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn insert_without_disk() {
        let pool = FileBufferPool::new();
        pool.insert("/virtual/file.bin", vec![1, 2, 3]);
        let b = pool.read(Path::new("/virtual/file.bin")).unwrap();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(pool.bytes_from_disk(), 0);
    }

    #[test]
    fn concurrent_cold_reads_share_one_buffer_and_one_disk_read() {
        let content = vec![7u8; 4096];
        let path = temp_file("race.bin", &content);
        let pool = FileBufferPool::new();
        let barrier = std::sync::Barrier::new(8);
        let buffers: Vec<FileBytes> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait(); // maximize cold-read overlap
                        pool.read(&path).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for b in &buffers {
            assert_eq!(&b[..], &content[..]);
            assert!(Arc::ptr_eq(&buffers[0], b), "all workers share the winning buffer");
        }
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "exactly one disk read counted");
        let (hits, misses) = pool.hit_miss();
        assert_eq!(misses, 1, "one miss per charged disk read");
        assert_eq!(hits + misses, 8, "every reader accounted for");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors_with_path() {
        let pool = FileBufferPool::new();
        let err = pool.read(Path::new("/definitely/not/here")).unwrap_err();
        assert!(err.to_string().contains("/definitely/not/here"));
    }

    // -- streaming ----------------------------------------------------------

    #[test]
    fn chunk_grid_tiles_the_file() {
        for (len, chunk) in [(0usize, 16usize), (1, 16), (16, 16), (17, 16), (100, 7)] {
            let n = ChunkedFileBuffer::chunk_count(len, chunk);
            let mut covered = 0usize;
            for i in 0..n {
                let span = ChunkedFileBuffer::chunk_span(len, chunk, i);
                assert_eq!(span.start, covered, "chunks contiguous ({len},{chunk})");
                assert!(!span.is_empty(), "no empty chunks ({len},{chunk})");
                covered = span.end;
            }
            assert_eq!(covered, len, "chunks cover the file ({len},{chunk})");
        }
    }

    #[test]
    fn streaming_read_matches_disk_and_counts_once() {
        let content: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("stream.bin", &content);
        let pool = FileBufferPool::new();
        let stream = pool.read_streaming(&path, 4096).unwrap();
        assert_eq!(stream.len(), content.len());
        // Joining via `read` waits for completion and shares the buffer.
        let bytes = pool.read(&path).unwrap();
        assert_eq!(&bytes[..], &content[..]);
        assert!(Arc::ptr_eq(&bytes, stream.bytes()), "read joins the stream's buffer");
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "one disk read");
        assert_eq!(pool.hit_miss(), (1, 1), "stream = miss, join = hit");
        assert!(pool.is_warm(&path), "completed stream published to the warm pool");
        // A second streaming read is warm: complete immediately, a hit.
        let again = pool.read_streaming(&path, 4096).unwrap();
        assert!(again.is_complete());
        assert_eq!(pool.hit_miss(), (2, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wait_available_serves_partial_ranges_in_flight() {
        let buf = ChunkedFileBuffer::new_manual("/virtual/wa", 100, 10);
        assert!(!buf.is_available(0..1));
        buf.complete_chunk(0);
        buf.complete_chunk(1);
        assert!(buf.is_available(0..20));
        assert!(buf.is_available(5..15));
        assert!(!buf.is_available(15..25), "chunk 2 incomplete");
        buf.wait_available(0..20).unwrap();
        // Ranges past EOF clamp to the file.
        buf.wait_available(0..0).unwrap();
        for i in 2..10 {
            buf.complete_chunk(i);
        }
        assert!(buf.is_complete());
        buf.wait_available(0..1000).unwrap();
        assert_eq!(&buf.wait_all().unwrap()[..], &[0u8; 100][..]);
    }

    /// The fault-injection seam: a source failing mid-file surfaces
    /// `FormatError::Io` to every waiter — no hang, no partial success.
    struct FailingSource {
        fail_at: usize,
        served: usize,
    }

    impl ChunkSource for FailingSource {
        fn read_chunk(&mut self, _offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
            if self.served == self.fail_at {
                return Err(std::io::Error::other("injected fault"));
            }
            self.served += 1;
            dst.fill(b'x');
            Ok(())
        }
    }

    #[test]
    fn reader_failure_surfaces_to_every_waiter() {
        let source = FailingSource { fail_at: 2, served: 0 };
        let buf = ChunkedFileBuffer::spawn("/virtual/fail.bin", source, 100, 10);
        // Waiters on ranges past the failure point all error; none hangs.
        let errors: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let buf = &buf;
                    s.spawn(move || {
                        buf.wait_available(30 * i..30 * i + 30).unwrap_err().to_string()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in &errors {
            assert!(e.contains("injected fault"), "waiter sees the I/O failure: {e}");
            assert!(e.contains("/virtual/fail.bin"), "failure names the file: {e}");
        }
        assert!(buf.is_failed());
        assert!(!buf.is_available(0..100), "failed stream never reports availability");
        // Completed chunks before the failure remain readable facts, but
        // wait_all refuses to bless the buffer.
        assert!(buf.wait_all().is_err());
    }

    #[test]
    fn insert_during_streaming_read_wins_for_future_reads() {
        let content = vec![1u8; 50_000];
        let path = temp_file("insert_race.bin", &content);
        let pool = FileBufferPool::new();

        let stream = pool.read_streaming(&path, 1024).unwrap();
        // An insert lands while the stream is (possibly) still in flight.
        let inserted = pool.insert(path.clone(), vec![9u8; 8]);
        // Streaming holders keep their internally-consistent buffer…
        let streamed = stream.wait_all().unwrap();
        assert_eq!(&streamed[..], &content[..]);
        // …but the pool serves the insert from now on: the completed stream
        // must not overwrite it (re-checked at publish time).
        let served = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&served, &inserted), "insert wins over the completed stream");
        assert_eq!(&served[..], &[9u8; 8][..]);
        let served_again = pool.read_streaming(&path, 1024).unwrap();
        assert!(Arc::ptr_eq(served_again.bytes(), &inserted));
        // The insert also evicted the orphaned stream entry — nothing pins
        // the superseded in-flight buffer in the pool.
        assert!(pool.streams.lock().is_empty(), "no orphaned stream retained");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threaded_insert_stream_race_leaves_one_winner() {
        // Regression companion to
        // `concurrent_cold_reads_share_one_buffer_and_one_disk_read`: mixed
        // insert/stream/read traffic on one path must converge on a single
        // buffer for all future reads.
        let content = vec![3u8; 100_000];
        let path = temp_file("race2.bin", &content);
        let pool = FileBufferPool::new();
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let (p, path, barrier) = (&pool, &path, &barrier);
            s.spawn(move || {
                barrier.wait();
                let st = p.read_streaming(path, 512).unwrap();
                st.wait_all().unwrap();
            });
            s.spawn(move || {
                barrier.wait();
                p.insert(path.clone(), vec![5u8; 16]);
            });
            s.spawn(move || {
                barrier.wait();
                let _ = p.read(path);
            });
        });
        // Whatever interleaving happened, the pool now has exactly one
        // buffer and every reader shares it.
        let a = pool.read(&path).unwrap();
        let b = pool.read(&path).unwrap();
        let c = pool.read_streaming(&path, 512).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, c.bytes()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_stream_charges_only_bytes_actually_read() {
        // Per-chunk charging: a stream failing at chunk 2 of a 100-byte
        // file (10-byte chunks) credits exactly the 20 completed bytes —
        // no whole-file overcount, and a later successful read charges its
        // own full length on top.
        let counter = Arc::new(AtomicU64::new(0));
        let buf = ChunkedFileBuffer::spawn_charged(
            "/virtual/partial.bin",
            FailingSource { fail_at: 2, served: 0 },
            100,
            10,
            Some(Arc::clone(&counter)),
        );
        assert!(buf.wait_all().is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 20, "only completed chunks charged");
    }

    #[test]
    fn completed_stream_publishes_lazily_and_is_warm_tells_the_truth() {
        let content = vec![4u8; 10_000];
        let path = temp_file("lazypub.bin", &content);
        let pool = FileBufferPool::new();
        let stream = pool.read_streaming(&path, 512).unwrap();
        // Drain the stream without ever calling `read` (the gated-run
        // shape: every consumer goes through the in-flight buffer).
        stream.wait_all().unwrap();
        // is_warm observes completion, publishes, and answers truthfully.
        assert!(pool.is_warm(&path), "completed stream counts as warm");
        let served = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&served, stream.bytes()), "published buffer is the stream's");
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "one disk read");
        std::fs::remove_file(&path).ok();
    }

    fn metric(m: &EngineMetrics, name: &str) -> u64 {
        m.snapshot().into_iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn observed_pool_mirrors_counters_and_tracks_residency() {
        let content: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let path = temp_file("observed.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));

        let stream = pool.read_streaming(&path, 4096).unwrap();
        stream.wait_all().unwrap();
        let joined = pool.read(&path).unwrap();
        assert_eq!(&joined[..], &content[..]);

        // Registry mirrors the pool's own counters exactly.
        let (hits, misses) = pool.hit_miss();
        assert_eq!(metric(&metrics, "file_pool_hits"), hits);
        assert_eq!(metric(&metrics, "file_pool_misses"), misses);
        assert_eq!(metric(&metrics, "bytes_from_disk"), pool.bytes_from_disk());
        assert_eq!(metric(&metrics, "bytes_from_disk"), content.len() as u64);
        assert_eq!(
            metric(&metrics, "chunks_completed"),
            ChunkedFileBuffer::chunk_count(content.len(), 4096) as u64
        );

        // The published buffer is resident (once — publish moves it from
        // the stream map to the warm map without double counting).
        assert_eq!(metric(&metrics, "resident_bytes"), content.len() as u64);
        assert_eq!(metric(&metrics, "peak_resident_bytes"), content.len() as u64);
        pool.evict_all();
        assert_eq!(metric(&metrics, "resident_bytes"), 0, "eviction empties the gauge");
        assert_eq!(metric(&metrics, "peak_resident_bytes"), content.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_wait_charges_only_blocking_waits() {
        let metrics = Arc::new(EngineMetrics::new());
        let mut buf = ChunkedFileBuffer::new_manual("/virtual/waits", 100, 10);
        buf.metrics = Some(Arc::clone(&metrics));
        let buf = Arc::new(buf);
        buf.complete_chunk(0);
        // Already-resident range: no wait charged.
        buf.wait_available(0..10).unwrap();
        assert_eq!(metric(&metrics, "chunk_waits"), 0);
        // A genuinely blocking wait is charged once, with its duration.
        std::thread::scope(|s| {
            let b = Arc::clone(&buf);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                b.complete_chunk(1);
            });
            buf.wait_available(10..20).unwrap();
        });
        assert_eq!(metric(&metrics, "chunk_waits"), 1);
        assert!(metric(&metrics, "chunk_wait_nanos") > 0);
    }

    #[test]
    fn observed_failed_stream_records_failure_and_partial_bytes() {
        let metrics = Arc::new(EngineMetrics::new());
        let buf = ChunkedFileBuffer::spawn_observed(
            "/virtual/obsfail.bin",
            FailingSource { fail_at: 3, served: 0 },
            100,
            10,
            None,
            Some(Arc::clone(&metrics)),
        );
        assert!(buf.wait_all().is_err());
        assert_eq!(metric(&metrics, "stream_failures"), 1);
        assert_eq!(metric(&metrics, "stream_failed_bytes"), 30, "three 10-byte chunks completed");
        assert_eq!(
            metric(&metrics, "bytes_from_disk"),
            30,
            "failed stream charges the prefix only"
        );
    }

    #[test]
    fn insert_wins_race_keeps_gauge_consistent() {
        let content = vec![2u8; 30_000];
        let path = temp_file("gauge_race.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let stream = pool.read_streaming(&path, 1024).unwrap();
        // Insert during the stream: the stream's bytes are superseded and
        // leave the gauge; only the insert's bytes stay resident.
        pool.insert(path.clone(), vec![9u8; 8]);
        stream.wait_all().unwrap();
        let _ = pool.read(&path).unwrap(); // observes completion, must not re-add
        assert_eq!(metric(&metrics, "resident_bytes"), 8);
        pool.evict(&path);
        assert_eq!(metric(&metrics, "resident_bytes"), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn racing_publishers_of_one_stream_keep_it_resident() {
        let content = vec![5u8; 20_000];
        let path = temp_file("publish_race.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let stream = pool.read_streaming(&path, 1024).unwrap();
        let bytes = stream.wait_all().unwrap();
        // The interleaving two sessions can produce: one publisher has
        // moved the stream's bytes into the warm map and not yet retired
        // the stream when the other publishes the same stream.
        pool.buffers
            .lock()
            .insert(path.clone(), PoolEntry { bytes: Arc::clone(&bytes), last_used: pool.tick() });
        let served = pool.publish_stream(&path, &stream, bytes);
        assert!(Arc::ptr_eq(&served, stream.bytes()));
        assert_eq!(metric(&metrics, "resident_bytes"), content.len() as u64);
        pool.evict(&path);
        assert_eq!(metric(&metrics, "resident_bytes"), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_stream_is_forgotten_and_read_retries() {
        // Pre-seed a failing stream under a real path, then check `read`
        // reports the failure once and succeeds on retry.
        let content = vec![8u8; 4096];
        let path = temp_file("retry.bin", &content);
        let pool = FileBufferPool::new();
        let failing =
            ChunkedFileBuffer::spawn(&path, FailingSource { fail_at: 0, served: 0 }, 4096, 1024);
        pool.streams.lock().insert(path.clone(), Arc::clone(&failing));
        let err = pool.read(&path).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        // The failed stream was dropped; a fresh read succeeds from disk.
        let ok = pool.read(&path).unwrap();
        assert_eq!(&ok[..], &content[..]);
        std::fs::remove_file(&path).ok();
    }

    // -- byte-budget LRU ----------------------------------------------------

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        pool.set_budget_bytes(250);
        let a = temp_file("lru_a.bin", &[1u8; 100]);
        let b = temp_file("lru_b.bin", &[2u8; 100]);
        let c = temp_file("lru_c.bin", &[3u8; 100]);
        pool.read(&a).unwrap();
        pool.read(&b).unwrap();
        pool.read(&a).unwrap(); // touch a: b is now least recently used
        pool.read(&c).unwrap(); // 300 > 250: evict b, not a
        assert!(pool.is_warm(&a), "recently-used entry survives");
        assert!(!pool.is_warm(&b), "LRU entry evicted");
        assert!(pool.is_warm(&c), "the entry being read is never evicted");
        assert_eq!(pool.evictions(), 1);
        assert_eq!(metric(&metrics, "file_pool_evictions"), 1);
        assert_eq!(metric(&metrics, "resident_bytes"), 200, "gauge tracks evictions");
        for p in [&a, &b, &c] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn oversized_read_keeps_itself_and_evicts_the_rest() {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        pool.set_budget_bytes(100);
        let small = temp_file("lru_small.bin", &[1u8; 50]);
        let big = temp_file("lru_big.bin", &[2u8; 500]);
        pool.read(&small).unwrap();
        // The big read busts the budget on its own: everything else goes,
        // but the buffer just read stays warm (its caller holds it anyway).
        let bytes = pool.read(&big).unwrap();
        assert_eq!(bytes.len(), 500);
        assert!(!pool.is_warm(&small));
        assert!(pool.is_warm(&big), "the entry being read is immune");
        assert_eq!(metric(&metrics, "resident_bytes"), 500);
        pool.evict_all();
        assert_eq!(metric(&metrics, "resident_bytes"), 0, "gauge empty after evict_all");
        for p in [&small, &big] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let pool = FileBufferPool::new(); // default: unlimited
        let paths: Vec<PathBuf> =
            (0..4).map(|i| temp_file(&format!("lru_u{i}.bin"), &vec![i as u8; 10_000])).collect();
        for p in &paths {
            pool.read(p).unwrap();
        }
        for p in &paths {
            assert!(pool.is_warm(p));
        }
        assert_eq!(pool.evictions(), 0);
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }

    // -- rzb routing ---------------------------------------------------------

    #[test]
    fn rzb_read_decompresses_and_charges_compressed_bytes() {
        let src: Vec<u8> = (0..50_000).map(|i| (i % 13) as u8).collect();
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzb_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzb.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let comp_len = std::fs::metadata(&packed).unwrap().len();
        assert!(comp_len < src.len() as u64, "fixture compresses");

        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        // Blocking read: transparently decompressed, charged at the
        // compressed length.
        let bytes = pool.read(&packed).unwrap();
        assert_eq!(&bytes[..], &src[..]);
        assert_eq!(pool.bytes_from_disk(), comp_len);
        assert_eq!(metric(&metrics, "rzb_blocks_decoded"), 50_000u64.div_ceil(4096));
        assert!(pool.is_warm(&packed));
        // Warm re-read: shared buffer, no disk, no decode.
        let again = pool.read(&packed).unwrap();
        assert!(Arc::ptr_eq(&bytes, &again));
        assert_eq!(pool.bytes_from_disk(), comp_len);
        assert_eq!(pool.hit_miss(), (1, 1));
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rzb_streaming_read_decodes_through_the_decoder() {
        let src: Vec<u8> = (0..60_000).map(|i| ((i * 7) % 31) as u8).collect();
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzbs_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzbs.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let comp_len = std::fs::metadata(&packed).unwrap().len();

        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let dec = pool.read_rzb_streaming(&packed, 2048).unwrap();
        assert_eq!(dec.len(), src.len());
        // Decode a middle range only: exactly its covering blocks publish.
        dec.ensure_decoded(10_000..12_000).unwrap();
        assert!(dec.decoded().is_available(10_000..12_000));
        // Joining via blocking `read` drives the rest and publishes warm.
        let bytes = pool.read(&packed).unwrap();
        assert_eq!(&bytes[..], &src[..]);
        assert_eq!(pool.bytes_from_disk(), comp_len, "streamed rzb charges compressed length");
        assert!(pool.is_warm(&packed));
        // Warm rzb streaming read: a completed no-op decoder.
        let warm = pool.read_rzb_streaming(&packed, 2048).unwrap();
        assert!(warm.is_complete());
        assert_eq!(metric(&metrics, "resident_bytes"), src.len() as u64, "compressed bytes freed");
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn corrupt_rzb_read_errors_and_retries_cleanly() {
        let src = vec![5u8; 20_000];
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzbc_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzbc.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let mut bad = std::fs::read(&packed).unwrap();
        let len = bad.len();
        bad[len - 30] ^= 0xFF; // inside the footer: index parsing must fail
        std::fs::write(&packed, &bad).unwrap();

        let pool = FileBufferPool::new();
        assert!(pool.read(&packed).is_err(), "corrupt container errors");
        assert!(!pool.is_warm(&packed), "nothing cached from a failed read");
        // Restore and retry: clean read.
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        assert_eq!(&pool.read(&packed).unwrap()[..], &src[..]);
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Seeded-violation tests for the `checked` shadow state machine: each
/// test plants a deliberate protocol violation and pins that the shadow
/// aborts — proving the sanitizer is live, not decorative. The one
/// positive test pins that the legitimate write→publish→read flow runs
/// clean under the shadow (the equivalence suites extend that proof to
/// the full engine).
#[cfg(all(test, feature = "checked"))]
mod checked_tests {
    use super::*;

    #[test]
    fn legitimate_write_publish_read_flow_is_clean() {
        let buf = ChunkedFileBuffer::new_manual("shadow-ok", 100, 32);
        for i in 0..ChunkedFileBuffer::chunk_count(100, 32) {
            let span = ChunkedFileBuffer::chunk_span(100, 32, i);
            // SAFETY: this test thread is the buffer's single writer and
            // chunk `i` has not been published yet.
            unsafe { buf.bytes().chunk_mut(span.clone()) }.fill(7);
            buf.complete_chunk(i);
        }
        buf.wait_available(0..100).unwrap();
        assert!(buf.is_available(10..90));
        assert_eq!(buf.wait_all().unwrap()[50], 7);
    }

    #[test]
    #[should_panic(expected = "checked: write")]
    fn seeded_write_after_publish_aborts() {
        let buf = ChunkedFileBuffer::new_manual("shadow-wap", 64, 32);
        let span = ChunkedFileBuffer::chunk_span(64, 32, 0);
        // SAFETY: single writer, chunk unpublished — the legitimate write.
        unsafe { buf.bytes().chunk_mut(span.clone()) }.fill(1);
        buf.complete_chunk(0);
        // SAFETY: deliberate protocol violation (writing a published
        // chunk); the shadow must abort inside `chunk_mut` before any
        // aliasable slice is produced.
        let _ = unsafe { buf.bytes().chunk_mut(span) };
    }

    #[test]
    #[should_panic(expected = "checked: write")]
    fn seeded_overlapping_writes_abort() {
        let buf = ChunkedFileBuffer::new_manual("shadow-overlap", 64, 32);
        // SAFETY: single writer, chunk unpublished.
        let _ = unsafe { buf.bytes().chunk_mut(0..32) };
        // SAFETY: deliberate violation (overlapping in-flight write); the
        // shadow aborts before the aliased slice exists.
        let _ = unsafe { buf.bytes().chunk_mut(16..48) };
    }

    #[test]
    #[should_panic(expected = "second writer")]
    fn seeded_second_writer_thread_aborts() {
        let buf = Arc::new(ChunkedFileBuffer::new_manual("shadow-2w", 64, 32));
        // SAFETY: this thread is the single writer so far.
        let _ = unsafe { buf.bytes().chunk_mut(0..32) };
        let other = Arc::clone(&buf);
        let err = std::thread::spawn(move || {
            // SAFETY: deliberate violation (a second writer thread on a
            // disjoint range); the shadow aborts before the slice exists.
            let _ = unsafe { other.bytes().chunk_mut(32..64) };
        })
        .join()
        .expect_err("second writer must abort");
        std::panic::resume_unwind(err);
    }

    #[test]
    #[should_panic(expected = "unpublished")]
    fn seeded_blank_bytes_claimed_resident_abort() {
        // Bookkeeping says every chunk is done, but nothing was ever
        // written or published: a blank buffer handed to the warm-wrap
        // constructor. The gated read's shadow cross-check must abort.
        let blank: FileBytes = Arc::new(FileBuf::zeroed(64));
        let buf = ChunkedFileBuffer::completed("shadow-blank", blank, 32);
        let _ = buf.wait_available(0..64);
    }
}
