//! Open-loop HTTP/1.1 load generator.
//!
//! Requests follow a fixed schedule of due times, whatever the server does.
//! One thread drives every connection: it pipelines each request over its
//! keep-alive socket once the request is due (with at most `depth`
//! unanswered per connection) and sleeps in `ppoll` until the next due time
//! or the next response, whichever comes first. Latency is measured from a
//! request's *due* time, not from when it was sent, so a server stall that
//! holds up the generator still shows in the latency of every request that
//! was due during the stall (no coordinated omission). How late the
//! generator sent each request is recorded as well.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest single wait, so the deadline is noticed on an idle schedule.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Offset from the schedule's start at which the request is due.
    pub due: Duration,
    /// Connection index (`0..conns`) that carries it.
    pub conn: usize,
    /// Request path, e.g. `/v1/classify`.
    pub path: &'static str,
    /// JSON request body.
    pub body: String,
}

/// What happened to one scheduled request. Times are offsets from the
/// schedule's start.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// When the request was due.
    pub due: Duration,
    /// When its last byte was written (`None`: never sent).
    pub sent: Option<Duration>,
    /// When its response was fully read (`None`: unanswered).
    pub done: Option<Duration>,
    /// HTTP status (0 when unanswered).
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The `x-autoac-trace` id echoed by the server, if any.
    pub trace_id: Option<u64>,
}

impl Outcome {
    /// Latency from due time to response, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| (d.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| (s.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    /// Answered with status 200.
    pub fn ok(&self) -> bool {
        self.done.is_some() && self.status == 200
    }
}

/// One keep-alive connection and the requests it carries.
struct Conn {
    stream: Option<TcpStream>,
    /// Plan indices in due order.
    queue: Vec<usize>,
    next: usize,
    inflight: VecDeque<usize>,
    buf: Vec<u8>,
}

impl Conn {
    fn can_send(&self, depth: usize) -> bool {
        self.stream.is_some() && self.next < self.queue.len() && self.inflight.len() < depth
    }

    fn finished(&self) -> bool {
        self.stream.is_none() || (self.next == self.queue.len() && self.inflight.is_empty())
    }
}

/// Runs `plan` against `addr` over `conns` keep-alive connections with at
/// most `depth` unanswered requests each. `start` anchors the due times.
/// Requests still unanswered `drain` after the last due time are given up
/// and stay `done: None`. Outcomes are returned in plan order.
pub fn run(
    addr: SocketAddr,
    start: Instant,
    plan: &[Planned],
    conns: usize,
    depth: usize,
    drain: Duration,
) -> Vec<Outcome> {
    let deadline = plan.iter().map(|p| p.due).max().unwrap_or_default() + drain;
    let depth = depth.max(1);
    let mut out: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            due: p.due,
            ..Outcome::default()
        })
        .collect();
    let mut cs: Vec<Conn> = (0..conns.max(1))
        .map(|_| Conn {
            stream: connect(addr).ok(),
            queue: Vec::new(),
            next: 0,
            inflight: VecDeque::new(),
            buf: Vec::new(),
        })
        .collect();
    let n = cs.len();
    for (i, p) in plan.iter().enumerate() {
        cs[p.conn % n].queue.push(i);
    }
    for c in &mut cs {
        c.queue.sort_by_key(|&i| plan[i].due);
    }
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        for c in &mut cs {
            while c.can_send(depth) && plan[c.queue[c.next]].due <= start.elapsed() {
                let i = c.queue[c.next];
                let p = &plan[i];
                let req = format!(
                    "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{}",
                    p.path,
                    p.body.len(),
                    p.body
                );
                let Some(stream) = c.stream.as_mut() else {
                    break;
                };
                if write_all(stream, req.as_bytes()).is_err() {
                    c.stream = None;
                    break;
                }
                out[i].sent = Some(start.elapsed());
                c.inflight.push_back(i);
                c.next += 1;
            }
            receive(c, &mut chunk, start, &mut out);
        }
        if cs.iter().all(Conn::finished) || start.elapsed() > deadline {
            return out;
        }
        let now = start.elapsed();
        let wake = cs
            .iter()
            .filter(|c| c.can_send(depth))
            .map(|c| plan[c.queue[c.next]].due.saturating_sub(now))
            .min()
            .unwrap_or(MAX_WAIT)
            .min(MAX_WAIT);
        if !wake.is_zero() {
            let streams: Vec<&TcpStream> = cs
                .iter()
                .filter(|c| !c.inflight.is_empty())
                .filter_map(|c| c.stream.as_ref())
                .collect();
            wait_readable(&streams, wake);
        }
    }
}

/// Reads whatever has arrived on `c` and completes the responses in it.
fn receive(c: &mut Conn, chunk: &mut [u8], start: Instant, out: &mut [Outcome]) {
    while let Some(stream) = c.stream.as_mut() {
        match stream.read(chunk) {
            Ok(0) => c.stream = None,
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                while let Some((status, trace_id, body, used)) = parse_response(&c.buf) {
                    c.buf.drain(..used);
                    let Some(k) = c.inflight.pop_front() else {
                        c.stream = None; // a response nobody asked for
                        break;
                    };
                    let o = &mut out[k];
                    o.done = Some(start.elapsed());
                    o.status = status;
                    o.trace_id = trace_id;
                    o.body = body;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => c.stream = None,
        }
    }
}

/// Blocks until one of `streams` is readable or `timeout` passes.
#[cfg(target_os = "linux")]
fn wait_readable(streams: &[&TcpStream], timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records and `ts` a
    // valid timespec, both alive for the whole call; a null sigmask leaves
    // the signal mask alone. The return value is not needed: the caller
    // reads every socket non-blockingly afterwards.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Portable fallback: short naps.
#[cfg(not(target_os = "linux"))]
fn wait_readable(_streams: &[&TcpStream], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(250)));
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parses one complete response at the front of `buf`: `(status, trace id,
/// body, bytes consumed)`, or `None` while it is still incomplete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, Option<u64>, Vec<u8>, usize)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    let mut trace_id = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-autoac-trace") {
                trace_id = u64::from_str_radix(value.trim(), 16).ok();
            }
        }
    }
    let total = end + 4 + len;
    (buf.len() >= total).then(|| (status, trace_id, buf[end + 4..total].to_vec(), total))
}

/// Classify requests in groups of `burst` that fall due together, one
/// group every `period` from `offset` for `duration`, round-robin over
/// `conns` connections. `burst = 1` is an evenly spaced stream.
pub fn schedule(
    offset: Duration,
    period: Duration,
    burst: usize,
    duration: Duration,
    conns: usize,
    mut body: impl FnMut(usize) -> String,
) -> Vec<Planned> {
    let groups = (duration.as_secs_f64() / period.as_secs_f64()).round() as usize;
    (0..groups * burst)
        .map(|i| Planned {
            due: offset + period * (i / burst) as u32,
            conn: i % conns.max(1),
            path: "/v1/classify",
            body: body(i),
        })
        .collect()
}
