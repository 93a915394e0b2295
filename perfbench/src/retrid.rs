//! `retrid` clients.
//!
//! [`InProc`] serves the generated request stream through the wire
//! codec and an in-process [`ServiceHandle`] on the calling thread: the
//! end-to-end `retrid` run, which wakes no thread and opens no socket.
//!
//! The open loop over TCP runs in the traced run. Each connection has a
//! sender and a receiver thread. The sender sends request `i` when it
//! falls due at `start + i × interval`, whether or not earlier replies
//! have come back; the server answers a connection's requests in order,
//! so the receiver matches each reply to the oldest outstanding request.
//! Latency runs from the due time, not from the send, so a stall
//! anywhere — in the generator, the socket or the server — shows up in
//! the latency of every request queued behind it. How late the sender
//! itself ran is reported apart as the generator lag.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use retri_service::proto::{
    decode_reply, decode_request, encode_reply, encode_request, ALL_SHARDS, MAX_FRAME_BYTES,
};
use retri_service::{Reply, Request, ServiceConfig, ServiceHandle, StrategyKind, StrategyStats};

use crate::inputs::{owned_domains, Domain, Op, OpKind, OpStream, BULK_BATCH};

/// Identifiers each domain keeps live; a `RELEASE` frees the older ones.
pub const KEEP_LIVE: usize = 256;

/// Most identifiers one `RELEASE` carries.
pub const MAX_RELEASE: usize = 4096;

/// Strategies whose identifiers must never be live twice in a domain.
#[must_use]
pub fn unique_by_construction(kind: StrategyKind) -> bool {
    matches!(
        kind,
        StrategyKind::Sequential | StrategyKind::Permutation | StrategyKind::Tribles128
    )
}

/// What one client knows about each domain it owns.
#[derive(Debug)]
pub struct Book {
    /// Identifiers received and not yet released, oldest first, per
    /// dense domain index.
    held: Vec<VecDeque<u128>>,
    /// The same identifiers as a set, for domains whose strategy must
    /// not repeat a live identifier.
    live: Vec<HashSet<u128>>,
    /// Identifiers received per domain.
    pub received: Vec<u64>,
    /// Identifiers the server confirmed released per domain.
    pub released: Vec<u64>,
    /// Identifiers handed out while already live (must stay 0).
    pub duplicates: u64,
}

impl Book {
    /// An empty book for `domains` dense domain indices.
    #[must_use]
    pub fn new(domains: usize) -> Self {
        Book {
            held: vec![VecDeque::new(); domains],
            live: vec![HashSet::new(); domains],
            received: vec![0; domains],
            released: vec![0; domains],
            duplicates: 0,
        }
    }

    /// Records identifiers received for `domain`.
    pub fn take_ids(&mut self, domain: Domain, ids: &[u128]) {
        let d = domain.index();
        self.received[d] += ids.len() as u64;
        for &id in ids {
            if unique_by_construction(domain.strategy) && !self.live[d].insert(id) {
                self.duplicates += 1;
            }
            self.held[d].push_back(id);
        }
    }

    /// Records what a correct `reply` to `req` gave or took back in
    /// `domain`.
    pub fn record(&mut self, domain: Domain, req: &Request, reply: &Reply) {
        match (req, reply) {
            (_, Reply::Ids(ids)) => self.take_ids(domain, ids),
            (Request::Release { .. }, Reply::Released { acked, .. }) => {
                self.released[domain.index()] += u64::from(*acked);
            }
            _ => {}
        }
    }

    /// The older identifiers of `domain` beyond the newest
    /// [`KEEP_LIVE`], removed from the book.
    fn release_batch(&mut self, domain: Domain) -> Vec<u128> {
        let d = domain.index();
        let n = self.held[d]
            .len()
            .saturating_sub(KEEP_LIVE)
            .min(MAX_RELEASE);
        let ids: Vec<u128> = self.held[d].drain(..n).collect();
        for id in &ids {
            self.live[d].remove(id);
        }
        ids
    }
}

/// The request sent for `op`. A `RELEASE` with nothing old enough to
/// free goes out as a `PING`, so the schedule keeps its shape.
pub fn request_for(op: Op, book: &Mutex<Book>) -> Request {
    let Domain { shard, strategy } = op.domain;
    match op.kind {
        OpKind::AllocSmall => Request::Alloc {
            shard,
            strategy,
            count: 1,
        },
        OpKind::AllocBulk => Request::Alloc {
            shard,
            strategy,
            count: BULK_BATCH,
        },
        OpKind::Release => {
            let ids = book.lock().expect("book lock").release_batch(op.domain);
            if ids.is_empty() {
                Request::Ping
            } else {
                Request::Release {
                    shard,
                    strategy,
                    ids,
                }
            }
        }
        OpKind::Stats => Request::Stats { shard: ALL_SHARDS },
    }
}

/// Whether `reply` is the correct answer to `req`; `Busy` and `Err`
/// never are.
fn reply_ok(req: &Request, reply: &Reply, shards: u16) -> bool {
    match (req, reply) {
        (Request::Alloc { count, .. }, Reply::Ids(ids)) => ids.len() == *count as usize,
        (Request::Release { ids, .. }, Reply::Released { acked, misses }) => {
            *acked as usize == ids.len() && *misses == 0
        }
        (Request::Stats { .. }, Reply::Stats(entries)) => {
            entries.len() == usize::from(shards) * StrategyKind::ALL.len()
        }
        (Request::Ping, Reply::Pong) => true,
        _ => false,
    }
}

/// One request an [`InProc`] client served.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// From encoding the request to decoding its reply, ns.
    pub ns: u64,
    /// Whether the reply answered the request correctly.
    pub ok: bool,
}

/// A client owning every domain of an in-process service. Each request
/// is encoded, decoded, served by the [`ServiceHandle`], and its reply
/// encoded and decoded, all on the calling thread: the service's whole
/// request path except the socket.
pub struct InProc {
    service: ServiceHandle,
    ops: OpStream,
    book: Mutex<Book>,
    shards: u16,
    wire: Vec<u8>,
}

impl InProc {
    /// A service for `seed` with `shards` shards, every domain primed
    /// with [`KEEP_LIVE`] identifiers. Also returns whether every
    /// priming allocation was answered correctly.
    #[must_use]
    pub fn start(seed: u64, shards: u16) -> (Self, bool) {
        let mut config = ServiceConfig::new(seed);
        config.shards = shards;
        let domains = owned_domains(shards, 0, 1);
        let mut client = InProc {
            service: ServiceHandle::new(&config),
            ops: OpStream::new(seed, 0, domains.clone()),
            book: Mutex::new(Book::new(domains.len())),
            shards,
            wire: Vec::new(),
        };
        let mut ok = true;
        for domain in domains {
            let req = Request::Alloc {
                shard: domain.shard,
                strategy: domain.strategy,
                count: KEEP_LIVE as u32,
            };
            ok &= client.serve(domain, &req).ok;
        }
        (client, ok)
    }

    /// Serves the next request of the stream.
    pub fn serve_next(&mut self) -> Served {
        let op = self.ops.next().expect("op streams are endless");
        let req = request_for(op, &self.book);
        self.serve(op.domain, &req)
    }

    fn serve(&mut self, domain: Domain, req: &Request) -> Served {
        let started = Instant::now();
        self.wire.clear();
        encode_request(req, &mut self.wire);
        let reply = decode_request(&self.wire).and_then(|decoded| {
            let reply = self.service.request(&decoded);
            self.wire.clear();
            encode_reply(&reply, &mut self.wire);
            decode_reply(&self.wire)
        });
        let ns = started.elapsed().as_nanos() as u64;
        let reply = reply.ok().filter(|r| reply_ok(req, r, self.shards));
        if let Some(reply) = &reply {
            self.book
                .lock()
                .expect("book lock")
                .record(domain, req, reply);
        }
        Served {
            ns,
            ok: reply.is_some(),
        }
    }

    /// Checks the service's final statistics against what this client
    /// received and released; see [`check_final_stats`].
    pub fn check_final(&mut self) -> (u64, u64) {
        match self.service.request(&Request::Stats { shard: ALL_SHARDS }) {
            Reply::Stats(stats) => {
                check_final_stats(&stats, &[&self.book.lock().expect("book lock")])
            }
            _ => (1, 1),
        }
    }
}

/// A request in flight.
#[derive(Debug, Clone)]
struct Pending {
    due_ns: u64,
    seq: u64,
    op: Op,
    request: Request,
}

/// Reads one length-prefixed frame.
fn read_frame<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Appends `req` as a length-prefixed frame.
pub fn push_frame(req: &Request, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode_request(req, out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A latency recorded for a request that failed or never got a reply:
/// it misses every limit.
pub const FAILED_NS: u64 = u64::MAX;

/// What one step measured on one or more connections.
#[derive(Debug, Default, Clone)]
pub struct StepStats {
    /// Latency of every request, timed from its due time, ns
    /// ([`FAILED_NS`] for failures).
    pub latencies_ns: Vec<u64>,
    /// Per request, how late the sender handed it to the socket, ns.
    pub gen_lag_ns: Vec<u64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Requests answered wrongly, refused, or never answered.
    pub failed: u64,
    /// `BUSY` replies among the failures.
    pub busy: u64,
    /// Identifiers received.
    pub ids: u64,
    /// Most requests outstanding at any send.
    pub backlog_max: u64,
    /// `(kind, request id, due, reply)` per request, for spans (traced
    /// runs only).
    pub timeline: Vec<(OpKind, u64, u64, u64)>,
}

impl StepStats {
    fn merge(&mut self, other: StepStats) {
        self.latencies_ns.extend(other.latencies_ns);
        self.gen_lag_ns.extend(other.gen_lag_ns);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.busy += other.busy;
        self.ids += other.ids;
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.timeline.extend(other.timeline);
    }
}

/// One pipelined connection, split into its sending and receiving
/// halves, with its request stream and client-side book.
pub struct Conn<W, R> {
    /// Sending half.
    pub writer: W,
    /// Receiving half.
    pub reader: R,
    /// This connection's request stream.
    pub ops: OpStream,
    /// What the client holds per domain.
    pub book: Arc<Mutex<Book>>,
    /// Index of the connection (high bits of its request ids).
    pub index: u64,
    /// Requests sent so far.
    pub seq: u64,
}

/// When one connection sends during a step, in ns on the step's clock.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of the first request.
    pub start_ns: u64,
    /// Gap between due times.
    pub interval_ns: u64,
    /// Requests in the step.
    pub n: u64,
}

/// Sends the requests of `schedule` on one connection and receives
/// their replies.
///
/// # Errors
///
/// Returns a write error; read errors count the unanswered requests as
/// failed instead.
pub fn run_step<W: Write + Send, R: Read + Send>(
    conn: &mut Conn<W, R>,
    clock: Instant,
    schedule: Schedule,
    shards: u16,
    timeline: bool,
) -> io::Result<StepStats> {
    let Schedule {
        start_ns,
        interval_ns,
        n,
    } = schedule;
    let Conn {
        writer,
        reader,
        ops,
        book,
        index,
        seq,
    } = conn;
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let received = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut stats = StepStats::default();
            let mut dead = false;
            for pending in rx {
                let reply = if dead {
                    None
                } else {
                    match read_frame(reader) {
                        Ok(payload) => decode_reply(&payload).ok(),
                        Err(_) => {
                            dead = true;
                            None
                        }
                    }
                };
                let done = now_ns();
                received.fetch_add(1, Ordering::SeqCst);
                let busy = matches!(reply, Some(Reply::Busy));
                match reply.filter(|r| reply_ok(&pending.request, r, shards)) {
                    Some(reply) => {
                        stats.ok += 1;
                        stats.latencies_ns.push(done.saturating_sub(pending.due_ns));
                        if let Reply::Ids(ids) = &reply {
                            stats.ids += ids.len() as u64;
                        }
                        book.lock().expect("book lock").record(
                            pending.op.domain,
                            &pending.request,
                            &reply,
                        );
                    }
                    None => {
                        stats.failed += 1;
                        stats.busy += u64::from(busy);
                        stats.latencies_ns.push(FAILED_NS);
                    }
                }
                if timeline {
                    stats
                        .timeline
                        .push((pending.op.kind, pending.seq, pending.due_ns, done));
                }
            }
            stats
        });

        let mut sent_stats = StepStats::default();
        let mut buf = Vec::new();
        let mut batch_due: Vec<u64> = Vec::new();
        let mut i = 0u64;
        let mut write_result = Ok(());
        while i < n {
            let now = now_ns();
            let due = start_ns + i * interval_ns;
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                continue;
            }
            // Everything due by now goes out in one write.
            buf.clear();
            batch_due.clear();
            while i < n && start_ns + i * interval_ns <= now {
                let outstanding = sent_stats.sent - received.load(Ordering::SeqCst);
                let due = start_ns + i * interval_ns;
                let op = ops.next().expect("op streams are endless");
                let request = request_for(op, book);
                push_frame(&request, &mut buf);
                sent_stats.backlog_max = sent_stats.backlog_max.max(outstanding + 1);
                sent_stats.sent += 1;
                tx.send(Pending {
                    due_ns: due,
                    seq: (*index << 40) | *seq,
                    op,
                    request,
                })
                .expect("receiver outlives the sender");
                *seq += 1;
                batch_due.push(due);
                i += 1;
            }
            if let Err(e) = writer.write_all(&buf) {
                write_result = Err(e);
                break;
            }
            let after = now_ns();
            sent_stats
                .gen_lag_ns
                .extend(batch_due.iter().map(|&d| after.saturating_sub(d)));
        }
        drop(tx);
        let mut stats = receiver.join().expect("receiver thread panicked");
        stats.sent = sent_stats.sent;
        stats.backlog_max = sent_stats.backlog_max;
        stats.gen_lag_ns = sent_stats.gen_lag_ns;
        write_result.map(|()| stats)
    })
}

/// Runs one step at `rate` requests/s for `secs` on every connection in
/// parallel (each connection takes an equal share of the rate, with
/// staggered start times).
///
/// # Errors
///
/// Returns the first connection's write error.
pub fn run_parallel_step<W: Write + Send, R: Read + Send>(
    conns: &mut [Conn<W, R>],
    clock: Instant,
    rate: f64,
    secs: f64,
    shards: u16,
    timeline: bool,
) -> io::Result<StepStats> {
    let per_conn = rate / conns.len() as f64;
    let interval_ns = (1e9 / per_conn).round().max(1.0) as u64;
    let n = (per_conn * secs).round().max(1.0) as u64;
    // Start a little ahead so every thread is ready at its first due time.
    let base = clock.elapsed().as_nanos() as u64 + 2_000_000;
    let stagger = interval_ns / conns.len() as u64;
    let results: Vec<io::Result<StepStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let schedule = Schedule {
                        start_ns: base + c as u64 * stagger,
                        interval_ns,
                        n,
                    };
                    run_step(conn, clock, schedule, shards, timeline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut total = StepStats::default();
    for result in results {
        let stats = result?;
        // Connections run side by side: backlogs add up.
        let backlog = total.backlog_max + stats.backlog_max;
        total.merge(stats);
        total.backlog_max = backlog;
    }
    Ok(total)
}

/// Sends `req` on a connection with nothing else in flight and waits
/// for the reply.
///
/// # Errors
///
/// Returns transport and decode errors.
pub fn request_sync<W: Write, R: Read>(
    writer: &mut W,
    reader: &mut R,
    req: &Request,
) -> io::Result<Reply> {
    let mut buf = Vec::new();
    push_frame(req, &mut buf);
    writer.write_all(&buf)?;
    let payload = read_frame(reader)?;
    decode_reply(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Connects `conns` TCP connections to `addr`, each split into halves.
///
/// # Errors
///
/// Returns connect and socket-option errors.
pub fn connect(
    addr: std::net::SocketAddr,
    seed: u64,
    shards: u16,
    conns: usize,
) -> io::Result<Vec<Conn<TcpStream, TcpStream>>> {
    (0..conns)
        .map(|c| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let reader = stream.try_clone()?;
            reader.set_read_timeout(Some(Duration::from_secs(10)))?;
            let domains = owned_domains(shards, c, conns);
            Ok(Conn {
                writer: stream,
                reader,
                ops: OpStream::new(seed, c, domains),
                book: Arc::new(Mutex::new(Book::new(
                    usize::from(shards) * StrategyKind::ALL.len(),
                ))),
                index: c as u64,
                seq: 0,
            })
        })
        .collect()
}

/// Fills every domain a connection owns with [`KEEP_LIVE`] identifiers,
/// so releases start at the steady density.
///
/// # Errors
///
/// Returns transport errors.
pub fn prime<W: Write, R: Read>(
    conn: &mut Conn<W, R>,
    shards: u16,
    conns: usize,
) -> io::Result<bool> {
    let mut ok = true;
    for domain in owned_domains(shards, conn.index as usize, conns) {
        let req = Request::Alloc {
            shard: domain.shard,
            strategy: domain.strategy,
            count: KEEP_LIVE as u32,
        };
        let reply = request_sync(&mut conn.writer, &mut conn.reader, &req)?;
        ok &= reply_ok(&req, &reply, shards);
        if let Reply::Ids(ids) = reply {
            conn.book.lock().expect("book lock").take_ids(domain, &ids);
        }
    }
    Ok(ok)
}

/// Checks the server's final statistics against what the clients saw:
/// for every domain, minted = identifiers received, live = minted −
/// released, released = releases confirmed; and no collision in a
/// domain whose strategy is unique by construction. Returns
/// `(checks, failures)`.
#[must_use]
pub fn check_final_stats(stats: &[StrategyStats], books: &[&Book]) -> (u64, u64) {
    let mut checks = 0;
    let mut failures = 0;
    let mut check = |ok: bool| {
        checks += 1;
        failures += u64::from(!ok);
    };
    for s in stats {
        let d = Domain {
            shard: s.shard,
            strategy: s.strategy,
        }
        .index();
        let received: u64 = books.iter().map(|b| b.received[d]).sum();
        let released: u64 = books.iter().map(|b| b.released[d]).sum();
        check(s.minted == received);
        check(s.live_total == s.minted - s.released.min(s.minted));
        check(s.released == released);
        if unique_by_construction(s.strategy) {
            check(s.collisions == 0);
        }
    }
    for book in books {
        check(book.duplicates == 0);
    }
    (checks, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake connection: the writing half serves each complete request
    /// frame from an in-process [`ServiceHandle`] and queues the reply
    /// for the reading half. `stall` makes the write carrying request
    /// number `.0` block for `.1`.
    struct StubWriter {
        service: ServiceHandle,
        pending: Vec<u8>,
        replies: mpsc::Sender<Vec<u8>>,
        frames: u64,
        stall: Option<(u64, Duration)>,
    }

    impl Write for StubWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.pending.extend_from_slice(bytes);
            while self.pending.len() >= 4 {
                let len = u32::from_le_bytes(self.pending[..4].try_into().unwrap()) as usize;
                if self.pending.len() < 4 + len {
                    break;
                }
                let frame: Vec<u8> = self.pending.drain(..4 + len).collect();
                if let Some((at, pause)) = self.stall {
                    if self.frames == at {
                        std::thread::sleep(pause);
                    }
                }
                self.frames += 1;
                let req = decode_request(&frame[4..]).expect("valid request");
                let reply = self.service.request(&req);
                let mut payload = Vec::new();
                encode_reply(&reply, &mut payload);
                let mut out = (payload.len() as u32).to_le_bytes().to_vec();
                out.extend_from_slice(&payload);
                self.replies.send(out).expect("reader alive");
            }
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    struct StubReader {
        replies: mpsc::Receiver<Vec<u8>>,
        buf: VecDeque<u8>,
    }

    impl Read for StubReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.buf.is_empty() {
                let chunk = self
                    .replies
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "no reply"))?;
                self.buf.extend(chunk);
            }
            let n = out.len().min(self.buf.len());
            for (slot, byte) in out.iter_mut().zip(self.buf.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    /// A schedule of `n` requests.
    fn every(start_ns: u64, interval_ns: u64, n: u64) -> Schedule {
        Schedule {
            start_ns,
            interval_ns,
            n,
        }
    }

    fn stub_conn(stall: Option<(u64, Duration)>) -> Conn<StubWriter, StubReader> {
        let mut config = ServiceConfig::new(11);
        config.shards = 2;
        let (tx, rx) = mpsc::channel();
        Conn {
            writer: StubWriter {
                service: ServiceHandle::new(&config),
                pending: Vec::new(),
                replies: tx,
                frames: 0,
                stall,
            },
            reader: StubReader {
                replies: rx,
                buf: VecDeque::new(),
            },
            ops: OpStream::new(3, 0, owned_domains(2, 0, 1)),
            book: Arc::new(Mutex::new(Book::new(10))),
            index: 0,
            seq: 0,
        }
    }

    #[test]
    fn an_unstalled_stub_serves_every_request_promptly() {
        let mut conn = stub_conn(None);
        let clock = Instant::now();
        let stats = run_step(&mut conn, clock, every(1_000_000, 1_000_000, 50), 2, false).unwrap();
        assert_eq!(stats.sent, 50);
        assert_eq!(stats.ok, 50, "{stats:?}");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.latencies_ns.len(), 50);
        assert!(stats.latencies_ns.iter().all(|&l| l < 20_000_000));
    }

    #[test]
    fn a_stall_shows_in_the_latency_of_the_requests_behind_it() {
        // 60 requests 1 ms apart; the write of request 20 blocks 30 ms.
        // Requests 21..50 fall due during the stall. Timed from their
        // due time they must carry the rest of the stall; timed from
        // their (late) send they would look instant.
        let stall = Duration::from_millis(30);
        let mut conn = stub_conn(Some((20, stall)));
        let clock = Instant::now();
        let interval = 1_000_000;
        let start = clock.elapsed().as_nanos() as u64 + 1_000_000;
        let stats = run_step(&mut conn, clock, every(start, interval, 60), 2, true).unwrap();
        assert_eq!(stats.ok, 60);
        let mut timeline = stats.timeline.clone();
        timeline.sort_by_key(|t| t.1);
        let latency = |i: usize| timeline[i].3 - timeline[i].2;
        // Request 20 itself waited the whole stall.
        assert!(latency(20) >= 30_000_000, "{}", latency(20));
        // Request k (21..=49) fell due (k − 20) ms into the stall.
        for k in 21..45 {
            let floor = 30_000_000 - (k as u64 - 20) * interval;
            assert!(latency(k) >= floor, "request {k}: {} < {floor}", latency(k));
        }
        // The generator reports its own lateness for the same requests.
        let lag_max = *stats.gen_lag_ns.iter().max().unwrap();
        assert!(lag_max >= 29_000_000, "{lag_max}");
        // Well after the stall the schedule is met again.
        assert!(latency(59) < 10_000_000, "{}", latency(59));
    }

    #[test]
    fn releases_return_what_was_received_and_stats_reconcile() {
        let mut conn = stub_conn(None);
        assert!(prime(&mut conn, 2, 1).unwrap());
        let clock = Instant::now();
        let stats = run_step(&mut conn, clock, every(0, 100_000, 3_000), 2, false).unwrap();
        assert_eq!(stats.failed, 0, "{stats:?}");
        let reply = request_sync(
            &mut conn.writer,
            &mut conn.reader,
            &Request::Stats { shard: ALL_SHARDS },
        )
        .unwrap();
        let Reply::Stats(entries) = reply else {
            panic!("stats reply expected")
        };
        let book = conn.book.lock().unwrap();
        assert!(
            book.released.iter().sum::<u64>() > 0,
            "releases must happen"
        );
        let (checks, failures) = check_final_stats(&entries, &[&book]);
        assert!(checks >= 10 * 3);
        assert_eq!(failures, 0);
        // A doctored count is caught.
        let mut wrong = entries.clone();
        wrong[0].minted += 1;
        assert!(check_final_stats(&wrong, &[&book]).1 > 0);
    }

    #[test]
    fn the_in_process_client_serves_the_mix_and_reconciles() {
        let (mut client, primed) = InProc::start(4, 2);
        assert!(primed);
        let served: Vec<Served> = (0..5_000).map(|_| client.serve_next()).collect();
        assert!(served.iter().all(|s| s.ok));
        assert!(served.iter().all(|s| s.ns > 0));
        let released: u64 = client.book.lock().unwrap().released.iter().sum();
        assert!(released > 0, "releases must happen");
        let (checks, failures) = client.check_final();
        assert!(checks >= 10 * 3);
        assert_eq!(failures, 0);
        // The same seed serves the same stream.
        let (mut again, _) = InProc::start(4, 2);
        for _ in 0..5_000 {
            again.serve_next();
        }
        let minted = |c: &mut InProc| match c.service.request(&Request::Stats { shard: ALL_SHARDS })
        {
            Reply::Stats(s) => s.iter().map(|e| e.minted).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(minted(&mut client), minted(&mut again));
    }
}
