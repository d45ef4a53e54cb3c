//! The `wire` stage: the store behind `servd` on loopback, driven over one
//! connection at a time by an open-loop generator — a sender thread paced
//! to a fixed schedule and a receiver thread matching responses by request
//! id, so the offered rate never collapses into a closed loop. Latency is
//! charged from each request's scheduled send time, and the generator's
//! own lateness is reported beside it. Every 64th request is a 32-pair
//! batch, and every answer is checked against the store's.
//!
//! Slices alternate between a segment at the fixed rate (the latency
//! figures) and rungs of a rate ladder (the highest rate that keeps the
//! latency limit).
//!
//! `servd::Client` keeps one stream for both directions, so the generator
//! splits the socket itself and speaks the protocol through
//! `servd::proto`'s public encoder and decoder.

use crate::cpus::Placement;
use crate::report::{median, percentile, Report};
use crate::serve::{build_store, hot_stream, report_build};
use crate::trace::Tracer;
use crate::StageRun;
use labelserve::{ServeConfig, VersionedEngine};
use servd::proto::{decode_response, encode_request, read_frame, FrameEvent, Request, Response};
use servd::{Client, ServdConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twgraph::Dist;

const K: usize = 1;
/// The fixed offered rate of the latency measurement, requests/s.
const RATE: f64 = 20_000.0;
const BATCH_EVERY: usize = 64;
const BATCH_LEN: usize = 32;
/// Requests in the cyclic schedule, each with its expected answer.
const SCHEDULE_LEN: usize = 1 << 17;
/// One fixed-rate segment; the latency figures are medians over segments.
const SEGMENT: Duration = Duration::from_millis(250);
/// One ladder rung.
const RUNG: Duration = Duration::from_millis(150);
/// Rungs run per fixed-rate segment.
const RUNGS_PER_SEGMENT: usize = 2;
/// The latency limit the ladder holds p99 to.
const LIMIT_P99_US: f64 = 1_000.0;
/// Most generator lateness (p99) a ladder rung may show and still count.
const LIMIT_LATE_P99_US: f64 = 250.0;
/// A rung's percentiles are medians over this many windows of it.
const RUNG_WINDOWS: usize = 5;
/// The ladder starts at the fixed rate and grows by this factor until a
/// rung fails, then bisects.
const LADDER_GROWTH: f64 = 1.5;
const LADDER_BISECTIONS: usize = 3;
/// The generator's ceiling; a ladder that reaches it ends there.
const LADDER_MAX: f64 = 1_000_000.0;
/// Requests in flight at which the sender holds further sends, below the
/// server's queue depth (128) so the generator never provokes
/// `OVERLOADED`.
const MAX_IN_FLIGHT: u64 = 112;
/// How long a send may be held for backlog before the run is abandoned.
const MAX_HOLD: Duration = Duration::from_millis(50);
/// The sender sleeps until this long before a send is due, then spins.
const SPIN: Duration = Duration::from_micros(10);
/// A receiver gives up on a response after this long.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(2);
/// One response in this many gets a span in a traced run.
const SPAN_EVERY: usize = 64;

/// Lower the calling thread's timer slack to 1 ns, so a short sleep
/// overshoots by the scheduler's latency rather than the default 50 µs.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes
    // only the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Sleep, then spin, until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The cyclic request schedule and the answer each request must get.
struct Schedule {
    requests: Vec<Request>,
    expected: Vec<Vec<Dist>>,
}

/// `SCHEDULE_LEN` requests over the skewed stream; answers come from the
/// bare store, so computing them warms no cache the server uses. Also
/// returns the store's time per request in microseconds.
fn schedule(engine: &VersionedEngine, stream: &[(u32, u32)]) -> (Schedule, f64) {
    let snap = engine.snapshot();
    let store = snap.engine().store();
    let mut pairs = stream.iter().copied().cycle();
    let mut requests = Vec::with_capacity(SCHEDULE_LEN);
    let mut expected = Vec::with_capacity(SCHEDULE_LEN);
    let t = Instant::now();
    for i in 0..SCHEDULE_LEN {
        let len = if i % BATCH_EVERY == BATCH_EVERY - 1 {
            BATCH_LEN
        } else {
            1
        };
        let qs: Vec<(u32, u32)> = pairs.by_ref().take(len).collect();
        expected.push(
            qs.iter()
                .map(|&(s, t)| store.distance(s, t).unwrap_or(Dist::MAX))
                .collect(),
        );
        requests.push(match qs[..] {
            [(s, t)] => Request::Query { s, t },
            _ => Request::Batch(qs),
        });
    }
    let inproc_us = t.elapsed().as_secs_f64() * 1e6 / SCHEDULE_LEN as f64;
    (Schedule { requests, expected }, inproc_us)
}

/// What one open-loop run observed.
struct OpenLoop {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    sent: u64,
    wrong: u64,
    refused: u64,
    timed_out: u64,
    backlogged: bool,
}

impl OpenLoop {
    /// The ladder's limit: p99 under the limit and the generator on time
    /// in the median window, and nothing refused, lost, wrong or stalled.
    fn meets_limit(&self) -> bool {
        !self.backlogged
            && self.refused == 0
            && self.timed_out == 0
            && self.wrong == 0
            && windowed(&self.latency_us, 99.0) <= LIMIT_P99_US
            && windowed(&self.late_us, 99.0) <= LIMIT_LATE_P99_US
    }
}

/// Median over `RUNG_WINDOWS` consecutive windows of `xs` of each
/// window's percentile `q`; one scheduler hiccup spoils one window.
fn windowed(xs: &[f64], q: f64) -> f64 {
    let len = xs.len().div_ceil(RUNG_WINDOWS).max(1);
    let per: Vec<f64> = xs.chunks(len).map(|w| percentile(w, q)).collect();
    median(&per)
}

/// Offer `count` requests of the schedule, starting at `offset`, at `rate`
/// per second over a fresh connection; request `i` is due at
/// `start + i / rate`.
fn open_loop(
    addr: SocketAddr,
    sched: &Schedule,
    offset: usize,
    count: usize,
    rate: f64,
    tr: &mut Tracer,
) -> OpenLoop {
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    // One round trip before the schedule starts: the server accepts new
    // connections on a poll tick, which must not be charged to the run.
    let mut out = Vec::new();
    encode_request(0, &Request::Epoch, &mut out);
    writer.write_all(&out).expect("handshake send");
    let mut buf = Vec::new();
    read_frame(&mut &stream, &mut buf, usize::MAX, || true).expect("handshake response");

    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (sent, received, stop) = (&sent, &received, &stop);
    let interval = Duration::from_secs_f64(1.0 / rate);
    // Start a little ahead so the first sends are not already late.
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + interval.mul_f64(i as f64);
    let at = move |i: usize| (offset + i) % sched.requests.len();
    let rtr = tr.child();

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            tight_timer_slack();
            let mut out = Vec::with_capacity(512);
            let mut late_us = Vec::with_capacity(count);
            let mut backlogged = false;
            'send: for i in 0..count {
                let due_at = due(i);
                // Hold sends while the server's queue could be full; the
                // wait is charged as lateness, and a long one ends the run.
                while i as u64 - received.load(Ordering::Acquire) >= MAX_IN_FLIGHT {
                    if Instant::now() > due_at + MAX_HOLD {
                        backlogged = true;
                        break 'send;
                    }
                    std::thread::yield_now();
                }
                wait_until(due_at);
                out.clear();
                encode_request(i as u64 + 1, &sched.requests[at(i)], &mut out);
                let now = Instant::now();
                if writer.write_all(&out).is_err() {
                    break;
                }
                late_us.push((now - due_at).as_secs_f64() * 1e6);
                sent.store(i as u64 + 1, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
            (late_us, backlogged)
        });

        let receiver = scope.spawn(move || {
            let mut rtr = rtr;
            let mut reader = BufReader::new(&stream);
            let mut buf = Vec::with_capacity(512);
            let mut latency_us = Vec::with_capacity(count);
            let (mut wrong, mut refused, mut timed_out) = (0u64, 0u64, 0u64);
            let mut got = 0u64;
            // The sender raises `stop` only after its last send, so once
            // it is up, `sent` is final.
            while !(stop.load(Ordering::Acquire) && got >= sent.load(Ordering::Acquire)) {
                match read_frame(&mut reader, &mut buf, usize::MAX, || true) {
                    Ok(FrameEvent::Frame) => {}
                    Ok(FrameEvent::Idle) | Ok(FrameEvent::Eof) | Err(_) => {
                        timed_out += sent.load(Ordering::Acquire) - got;
                        break;
                    }
                }
                let now = Instant::now();
                got += 1;
                received.store(got, Ordering::Release);
                let Ok((id, resp)) = decode_response(&buf) else {
                    wrong += 1;
                    continue;
                };
                let i = (id as usize).wrapping_sub(1);
                if i >= count {
                    wrong += 1;
                    continue;
                }
                let due_at = due(i);
                latency_us.push((now - due_at).as_secs_f64() * 1e6);
                if i % SPAN_EVERY == 0 {
                    rtr.record("servd/request", due_at, now, id);
                }
                let want = &sched.expected[at(i)];
                match resp {
                    Response::Dist(d) => wrong += u64::from(want[..] != [d]),
                    Response::Batch(ds) => wrong += u64::from(&ds != want),
                    Response::Err(_) => refused += 1,
                    Response::Epoch(_) => wrong += 1,
                }
            }
            (latency_us, wrong, refused, timed_out, rtr)
        });
        let (late_us, backlogged) = sender.join().expect("sender thread");
        let (latency_us, wrong, refused, timed_out, rtr) =
            receiver.join().expect("receiver thread");
        tr.absorb(rtr);
        OpenLoop {
            latency_us,
            late_us,
            sent: sent.load(Ordering::Acquire),
            wrong,
            refused,
            timed_out,
            backlogged,
        }
    })
}

/// The rate ladder as a state machine: climb from the fixed rate by
/// `LADDER_GROWTH` while rungs meet the limit, then bisect between the last
/// rate that met it and the first that did not. A failing rung is probed
/// twice before it counts. Each finished climb yields one highest rate.
#[derive(Clone, Default)]
struct Ladder {
    pass: f64,
    fail: Option<f64>,
    bisections: usize,
    retrying: bool,
    results: Vec<f64>,
}

impl Ladder {
    fn next_rate(&self) -> f64 {
        match self.fail {
            None if self.pass == 0.0 => RATE,
            None => self.pass * LADDER_GROWTH,
            Some(fail) => (self.pass + fail) / 2.0,
        }
    }

    fn record(&mut self, rate: f64, ok: bool) {
        if !ok && !self.retrying {
            self.retrying = true;
            return;
        }
        self.retrying = false;
        if self.fail.is_some() {
            self.bisections += 1;
        }
        if ok {
            self.pass = rate;
        } else {
            self.fail = Some(rate);
        }
        let done = self.bisections >= LADDER_BISECTIONS
            || (self.fail.is_none() && self.next_rate() > LADDER_MAX)
            || (self.fail.is_some() && self.pass == 0.0);
        if done {
            self.results.push(self.pass);
            *self = Ladder {
                results: std::mem::take(&mut self.results),
                ..Ladder::default()
            };
        }
    }

    /// The median finished climb, or the best rate so far if none finished.
    fn max_rate(&self) -> f64 {
        if self.results.is_empty() {
            self.pass
        } else {
            median(&self.results)
        }
    }
}

/// The per-segment percentiles of the fixed-rate runs.
#[derive(Default)]
struct Segments {
    p50: Vec<f64>,
    p99: Vec<f64>,
    late_p50: Vec<f64>,
    late_p99: Vec<f64>,
}

pub struct WireStage {
    rep: Report,
    place: Placement,
    server: Server,
    sched: Schedule,
    offset: usize,
    slices: usize,
    segments: Segments,
    ladder: Ladder,
    /// The ladder and the segment count before the last slice.
    last: (Ladder, usize),
}

impl WireStage {
    pub fn new(run: StageRun, tr: &mut Tracer) -> Self {
        let mut rep = Report::default();
        let inst = crate::instance(run.n, K, run.seed);
        let place = Placement::new();

        // Set-up: generated instance to a server accepting connections.
        let reps = if run.featured { 3 } else { 1 };
        let mut builds = Vec::new();
        let mut served = None;
        for _ in 0..reps {
            drop(served.take()); // shut the previous server down first
            let t = Instant::now();
            let built = build_store(&inst, tr);
            builds.push((built.decompose_s, built.label_s, built.store_build_s));
            let engine = Arc::new(VersionedEngine::new(built.store, ServeConfig::default()));
            let server = tr
                .span("servd/Server::spawn", || {
                    place.on_first(|| {
                        Server::spawn(engine, ("127.0.0.1", 0), ServdConfig::default())
                    })
                })
                .expect("bind a loopback port");
            rep.setup_s.push(t.elapsed().as_secs_f64());
            served = Some((server, built.shape));
        }
        let (server, shape) = served.expect("at least one set-up");
        report_build(&mut rep, &builds, &shape);

        let stream = hot_stream(inst.n, SCHEDULE_LEN, run.seed ^ 0x3172E);
        let (mut sched, inproc_us) = schedule(server.engine(), &stream);
        if run.inject_wrong {
            sched.expected[0] = vec![Dist::MAX - 1];
        }
        rep.layer("servd.inproc_us", inproc_us, "us");

        // Closed loop: one synchronous round trip at a time.
        let addr = server.local_addr();
        let span = tr.begin("servd/closed_loop");
        let (rtt_us, failed) = place.on_second(|| {
            let mut client = Client::connect(addr).expect("loopback connect");
            let mut rtt_us = Vec::new();
            let mut failed = 0u64;
            for (req, want) in sched.requests.iter().zip(&sched.expected).take(2_000) {
                let t = Instant::now();
                let ok = match client.call(req) {
                    Ok(Response::Dist(d)) => want[..] == [d],
                    Ok(Response::Batch(ds)) => *want == ds,
                    _ => false,
                };
                rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                failed += u64::from(!ok);
            }
            (rtt_us, failed)
        });
        tr.end(span);
        rep.count(
            rtt_us.len() as u64,
            failed,
            "wire: closed-loop answers differ from the store",
        );
        rep.layer("servd.closed_rtt_p50_us", median(&rtt_us), "us");

        WireStage {
            rep,
            place,
            server,
            sched,
            offset: 2_000,
            slices: 0,
            segments: Segments::default(),
            ladder: Ladder::default(),
            last: (Ladder::default(), 0),
        }
    }

    pub fn discard_last(&mut self) {
        self.ladder = self.last.0.clone();
        let seg = &mut self.segments;
        for v in [
            &mut seg.p50,
            &mut seg.p99,
            &mut seg.late_p50,
            &mut seg.late_p99,
        ] {
            v.truncate(self.last.1);
        }
    }

    pub fn satisfied(&self) -> bool {
        self.segments.p50.len() >= 3 && !self.ladder.results.is_empty()
    }

    /// A fixed-rate segment, or the ladder's next rung.
    pub fn slice(&mut self, tr: &mut Tracer) {
        self.last = (self.ladder.clone(), self.segments.p50.len());
        let addr = self.server.local_addr();
        let segment = self.slices % (RUNGS_PER_SEGMENT + 1) == 0;
        self.slices += 1;
        let (rate, length, name) = if segment {
            (RATE, SEGMENT, "servd/segment")
        } else {
            (self.ladder.next_rate(), RUNG, "servd/rung")
        };
        let count = (rate * length.as_secs_f64()).ceil() as usize;
        let span = tr.begin(name);
        let run = self
            .place
            .on_second(|| open_loop(addr, &self.sched, self.offset, count, rate, tr));
        tr.end(span);
        self.offset = (self.offset + count) % SCHEDULE_LEN;
        if segment {
            // A send held back for backlog is late, not failed: the wait
            // is charged to its latency.
            self.rep.count(
                run.sent,
                run.wrong + run.refused + run.timed_out,
                "wire: fixed-rate requests wrong, refused or lost",
            );
            self.segments.p50.push(percentile(&run.latency_us, 50.0));
            self.segments.p99.push(percentile(&run.latency_us, 99.0));
            self.segments.late_p50.push(percentile(&run.late_us, 50.0));
            self.segments.late_p99.push(percentile(&run.late_us, 99.0));
        } else {
            // A rung beyond the limit is the probe's finding, not a failed
            // operation, so only wrong answers count against it.
            self.rep.count(
                run.sent,
                run.wrong,
                "wire: ladder answers differ from the store",
            );
            self.ladder.record(rate, run.meets_limit());
        }
    }

    pub fn finish(self) -> Report {
        let mut rep = self.rep;
        let seg = &self.segments;
        rep.e2e("wire_p50_us", median(&seg.p50), "us");
        // Too unsteady on a shared host to gate (see README.md), so it is
        // reported with the per-layer metrics.
        rep.layer("wire_p99_us", median(&seg.p99), "us");
        rep.e2e("wire_max_rps", self.ladder.max_rate(), "1/s");
        rep.layer("loadgen.late_p50_us", median(&seg.late_p50), "us");
        rep.layer("loadgen.late_p99_us", median(&seg.late_p99), "us");
        let stats = self.server.shutdown();
        rep.layer("servd.requests", stats.requests as f64, "count");
        rep.layer("servd.queries", stats.queries as f64, "count");
        rep.layer("servd.overloads", stats.overloads as f64, "count");
        rep.layer("servd.malformed", stats.malformed as f64, "count");
        rep.layer(
            "servd.rejected_batches",
            stats.rejected_batches as f64,
            "count",
        );
        rep
    }
}
