//! A dependency-free HTTP endpoint serving the live-status board.
//!
//! `wavesim --serve-metrics <addr>` binds a [`TcpListener`] and answers
//! two routes from the [`StatusBoard`] it was handed:
//!
//! * `GET /metrics` — the Prometheus exposition-format page
//!   ([`crate::metrics::metrics_page`] under `wavesim_live_`);
//! * `GET /status` — a JSON status document with the same content: every
//!   counter and gauge of the four stat structs, the cache hit rate, the
//!   progress rate.
//!
//! The server is strictly read-only: it clones board snapshots and never
//! touches the simulation, so serving cannot perturb a run's schedule or
//! its stdout. One request per connection (HTTP/1.0, `Connection:
//! close`), handled serially on one detached thread — a scrape target,
//! not a web server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use wavesim_json::Value;

use crate::livestate::{LiveStatus, StatusBoard};
use crate::metrics::metrics_page;

/// What every series of the endpoint's page starts with.
const PREFIX: &str = "wavesim_live_";

/// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free one) and
/// spawns the thread serving `board`. Returns the bound address. The
/// thread runs until the process exits.
///
/// # Errors
/// Fails when the address cannot be bound or the thread cannot spawn.
pub fn serve(addr: &str, board: StatusBoard) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::Builder::new()
        .name("wavesim-metrics".into())
        .spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let _ = handle(&mut stream, &board);
            }
        })
        .map_err(|e| format!("spawn metrics thread: {e}"))?;
    Ok(local)
}

fn handle(s: &mut TcpStream, board: &StatusBoard) -> std::io::Result<()> {
    // Both directions time out: a client that never sends, or never
    // reads, must not wedge the one serving thread.
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the header terminator (or EOF, or a full buffer): the
    // request line may arrive split across writes.
    let mut buf = [0u8; 2048];
    let mut got = 0;
    while got < buf.len() {
        let n = s.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
        if buf[..got].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let req = String::from_utf8_lossy(&buf[..got]);
    let path = req.split_whitespace().nth(1).unwrap_or("/");
    let (code, reason, ctype, body) = match path {
        "/metrics" => match board.snapshot() {
            Some(st) => (
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_page(PREFIX, &st, &[]),
            ),
            None => (503, "Service Unavailable", "text/plain", none_body()),
        },
        "/status" | "/status.json" => match board.snapshot() {
            Some(st) => (
                200,
                "OK",
                "application/json",
                format!("{}\n", status_json(&st).pretty()),
            ),
            None => (503, "Service Unavailable", "text/plain", none_body()),
        },
        "/" => (
            200,
            "OK",
            "text/plain",
            "wavesim live observability: GET /metrics | GET /status\n".into(),
        ),
        _ => (404, "Not Found", "text/plain", "not found\n".into()),
    };
    write!(
        s,
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    s.write_all(body.as_bytes())?;
    s.flush()
}

fn none_body() -> String {
    "no run has published yet\n".into()
}

/// Builds the JSON status document for one status snapshot: the run, then
/// a key per row of [`LiveStatus::tables`] and per derived value, under
/// the names the metrics page gives them.
#[must_use]
pub fn status_json(s: &LiveStatus) -> Value {
    let mut doc = vec![
        ("run".to_string(), Value::Str(s.run_line())),
        ("done".to_string(), Value::Bool(s.done)),
    ];
    for (group, rows) in s.tables() {
        for row in rows {
            doc.push((format!("{group}{}", row.name), row.value.into()));
        }
    }
    doc.push(("msgs_delivered".to_string(), s.delivered().into()));
    for (name, _, value) in s.gauges() {
        doc.push((name.to_string(), value.into()));
    }
    Value::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::{HealthSnapshot, WaveStats};

    fn sample() -> LiveStatus {
        LiveStatus {
            run: vec![("protocol", "clrp".into()), ("seed", "1".into())],
            cycle: 4096,
            stats: WaveStats {
                msgs_sent: 100,
                msgs_circuit: 60,
                msgs_wormhole: 30,
                cache_hits: 30,
                cache_misses: 10,
                establish_retries: 2,
                ..WaveStats::default()
            },
            health: HealthSnapshot {
                in_flight_msgs: 10,
                in_flight_flits: 64,
                active_routers: 7,
                scan_wall_ns: 4000,
                ..HealthSnapshot::default()
            },
            progress_rate: 11.5,
            cycles_per_sec: 1.0e6,
            ..LiveStatus::default()
        }
    }

    #[test]
    fn metrics_text_is_well_formed_exposition() {
        let text = metrics_page(PREFIX, &sample(), &[]);
        assert!(text.contains("# TYPE wavesim_live_cycle gauge"));
        assert!(text.contains("wavesim_live_cycle 4096"));
        assert!(text.contains("wavesim_live_msgs_delivered 90"));
        assert!(text.contains("wavesim_live_scan_wall_ns 4000"));
        // Every line is a comment or `name[{labels}] value` with a
        // numeric value (label values may themselves contain spaces).
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty(), "malformed line: {line:?}");
            assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric sample value: {line:?}"
            );
        }
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn status_json_round_trips_and_carries_the_vitals() {
        let doc = status_json(&sample());
        let parsed = Value::parse(&doc.pretty()).expect("valid JSON");
        assert_eq!(parsed.get("cycle").and_then(Value::as_u64), Some(4096));
        assert_eq!(
            parsed.get("msgs_delivered").and_then(Value::as_u64),
            Some(90)
        );
        assert_eq!(
            parsed.get("cache_hit_rate").and_then(Value::as_f64),
            Some(0.75)
        );
        assert_eq!(
            parsed.get("scan_wall_ns").and_then(Value::as_u64),
            Some(4000)
        );
    }

    #[test]
    fn server_answers_metrics_and_status_over_tcp() {
        let addr = serve("127.0.0.1:0", StatusBoard::new(false)).expect("bind");
        let get = |path: &str| {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
                .expect("send request");
            let mut out = String::new();
            c.read_to_string(&mut out).expect("read");
            out
        };
        // No run has published onto this board: routes answer 503, the
        // index and unknown routes answer 200/404.
        let resp = get("/metrics");
        assert!(resp.starts_with("HTTP/1.0 503"), "{resp}");
        assert!(resp.contains("Content-Length:"));
        let resp = get("/status");
        assert!(resp.starts_with("HTTP/1.0 503"), "{resp}");
        let resp = get("/");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        assert!(resp.contains("/metrics"));
        let resp = get("/nope");
        assert!(resp.starts_with("HTTP/1.0 404"), "{resp}");
    }
}
