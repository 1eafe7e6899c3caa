//! Coordinated-omission check: a server that stalls must show the stall in
//! the latency of every request that was due during it, and in how late the
//! generator ran, even though the generator cannot send while blocked.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use perfbench::loadgen::{self, Planned};

const STALL_AT: usize = 20;
const STALL: Duration = Duration::from_millis(300);
const SPACING_MS: u64 = 5;

/// Answers pipelined POSTs on one connection; request `STALL_AT` is held
/// for `STALL` before it is answered.
fn stalling_server(listener: TcpListener, requests: usize) {
    let (mut s, _) = listener.accept().expect("accept");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut served = 0;
    while served < requests {
        let n = s.read(&mut chunk).expect("read");
        if n == 0 {
            return;
        }
        buf.extend_from_slice(&chunk[..n]);
        // Each request here has a 2-byte body: "{}".
        while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            if buf.len() < end + 4 + 2 {
                break;
            }
            buf.drain(..end + 4 + 2);
            if served == STALL_AT {
                std::thread::sleep(STALL);
            }
            let body = format!("{{\"i\":{served}}}");
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nx-autoac-trace: {:016x}\r\n\r\n{body}",
                body.len(),
                served + 1
            );
            s.write_all(resp.as_bytes()).expect("write");
            served += 1;
        }
    }
}

#[test]
fn server_stall_shows_in_later_latency_and_generator_lateness() {
    let requests = 120;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || stalling_server(listener, requests));

    let plan: Vec<Planned> = (0..requests)
        .map(|i| Planned {
            due: Duration::from_millis(10 + SPACING_MS * i as u64),
            conn: 0,
            path: "/v1/classify",
            body: "{}".into(),
        })
        .collect();
    let out = loadgen::run(addr, Instant::now(), &plan, 1, 4, Duration::from_secs(5));
    server.join().expect("server thread");

    assert!(out.iter().all(|o| o.ok()), "every request is answered");
    assert_eq!(out[7].trace_id, Some(8), "trace header is read back");
    let lat: Vec<f64> = out.iter().map(|o| o.latency_ms().unwrap()).collect();
    let late: Vec<f64> = out.iter().map(|o| o.late_ms().unwrap()).collect();

    // Before the stall the server keeps up.
    assert!(
        lat[..STALL_AT].iter().all(|&l| l < 100.0),
        "pre-stall latency {lat:?}"
    );
    // Requests due during the stall wait for it: the first ones for nearly
    // all of it, later ones for what remains of it.
    let stall_ms = STALL.as_secs_f64() * 1e3;
    for (k, &l) in lat.iter().enumerate().skip(STALL_AT).take(20) {
        let remaining = stall_ms - ((k - STALL_AT) as u64 * SPACING_MS) as f64;
        assert!(
            l >= remaining - 30.0,
            "request {k} latency {l:.1} ms, stall left {remaining} ms"
        );
    }
    // The generator could not send while 4 requests sat unanswered, so it
    // ran late, and says so.
    let max_late = late.iter().cloned().fold(0.0, f64::max);
    assert!(
        max_late >= stall_ms / 2.0,
        "generator lateness {max_late:.1} ms"
    );
    // It catches up afterwards.
    assert!(
        late[requests - 1] < 50.0,
        "final lateness {:.1} ms",
        late[requests - 1]
    );
}

#[test]
fn tail_is_highest_percentile_with_ten_samples_beyond() {
    use perfbench::stats::tail;
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs), (99.0, 990.0));
    let xs: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(tail(&xs), (90.0, 900.0));
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs), (90.0, 90.0));
    let xs: Vec<f64> = (1..=60).map(f64::from).collect();
    assert_eq!(tail(&xs), (75.0, 45.0));
    let xs: Vec<f64> = (1..=39).map(f64::from).collect();
    assert_eq!(tail(&xs), (50.0, 20.0));
}
