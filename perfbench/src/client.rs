//! A loopback NDJSON client for an in-process `serve_socket` server.
//!
//! Both loops time each request from when it was *due*: in the open
//! loop that is its scheduled arrival, in the closed loop the moment
//! its window slot freed. A stalled server therefore charges its
//! stall to every request it delays, not only to the one it holds.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use qrc_serve::{
    bind_ephemeral, serve_socket, CompilationService, FrontendConfig, ServeRequest, ShutdownFlag,
};

/// How long the client waits for outstanding replies before it counts
/// them as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When the request was due, from the start of the loop.
    pub due: Duration,
    /// When it was written to the socket.
    pub sent: Duration,
    /// When its reply arrived, and the reply line (`None`: never).
    pub reply: Option<(Duration, String)>,
}

impl Exchange {
    /// Milliseconds from due to reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(at, _)| at.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator sent this request late.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// When the client sends each request.
pub enum Pacing<'a> {
    /// Keep this many requests in flight.
    Closed(usize),
    /// Send request `i` at `due_us[i]` microseconds after the start.
    Open(&'a [u64]),
}

/// A running in-process socket server.
pub struct Server {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Serves `service` on an ephemeral loopback port with the default
    /// front-end settings.
    pub fn start(service: &Arc<CompilationService>) -> std::io::Result<Server> {
        let listener = bind_ephemeral(None)?;
        let addr = listener.local_addr()?;
        let shutdown = ShutdownFlag::new();
        let thread = {
            let (service, shutdown) = (Arc::clone(service), shutdown.clone());
            thread::spawn(move || {
                serve_socket(&service, listener, &FrontendConfig::default(), &shutdown)
            })
        };
        Ok(Server {
            addr,
            shutdown,
            thread,
        })
    }

    /// Drains and stops the server, waiting for its threads.
    pub fn stop(self) -> std::io::Result<()> {
        self.shutdown.request();
        self.thread.join().expect("server thread panicked")
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Sends `requests` to `addr` over one connection and collects every
/// reply, matched to its request by ID. `on_send` runs just before each request is written (the
/// traced run times calls there); time it spends makes the generator
/// late, never the requests' due times.
pub fn exchange(
    addr: SocketAddr,
    requests: &[ServeRequest],
    pacing: Pacing<'_>,
    mut on_send: impl FnMut(usize, &str),
) -> std::io::Result<Vec<Exchange>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<(String, Instant, String)>();
    let reader = {
        let stream = stream.try_clone()?;
        thread::spawn(move || {
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                if let Some(id) = ServeRequest::recover_id(&line) {
                    if tx.send((id, at, line)).is_err() {
                        break;
                    }
                }
            }
        })
    };
    let lines: Vec<String> = requests.iter().map(ServeRequest::to_line).collect();
    let index_of: HashMap<&str, usize> = requests
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.id.as_deref().map(|id| (id, i)))
        .collect();
    let start = Instant::now();
    let mut log: Vec<Exchange> = Vec::with_capacity(requests.len());
    let mut answered = 0usize;
    let mut send = |i: usize, due: Instant, log: &mut Vec<Exchange>| -> std::io::Result<()> {
        on_send(i, &lines[i]);
        let sent = Instant::now();
        writer.write_all(lines[i].as_bytes())?;
        writer.write_all(b"\n")?;
        log.push(Exchange {
            due: due - start,
            sent: sent - start,
            reply: None,
        });
        Ok(())
    };
    let record = |(id, at, line): (String, Instant, String), log: &mut Vec<Exchange>| {
        let index = index_of.get(id.as_str()).copied();
        if let Some(slot) = index.and_then(|i| log.get_mut(i)) {
            if slot.reply.is_none() {
                slot.reply = Some((at - start, line));
                return true;
            }
        }
        false
    };
    match pacing {
        Pacing::Closed(window) => {
            for i in 0..window.min(requests.len()) {
                send(i, start, &mut log)?;
            }
            while answered < log.len() {
                let Ok(reply) = rx.recv_timeout(REPLY_TIMEOUT) else {
                    break;
                };
                let freed = reply.1;
                if record(reply, &mut log) {
                    answered += 1;
                    if log.len() < requests.len() {
                        send(log.len(), freed, &mut log)?;
                    }
                }
            }
        }
        Pacing::Open(due_us) => {
            for (i, &offset) in due_us.iter().enumerate().take(requests.len()) {
                let due = start + Duration::from_micros(offset);
                while let Some(wait) = due.checked_duration_since(Instant::now()) {
                    match rx.recv_timeout(wait) {
                        Ok(reply) => answered += usize::from(record(reply, &mut log)),
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            thread::sleep(wait);
                            break;
                        }
                    }
                }
                send(i, due, &mut log)?;
            }
            while answered < log.len() {
                let Ok(reply) = rx.recv_timeout(REPLY_TIMEOUT) else {
                    break;
                };
                answered += usize::from(record(reply, &mut log));
            }
        }
    }
    stream.shutdown(std::net::Shutdown::Both)?;
    reader.join().expect("reply reader panicked");
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Echoes `{"id":…,"ok":true}` for every request line, in order.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let id = ServeRequest::recover_id(&line).unwrap();
                writeln!(out, "{{\"id\":\"{id}\",\"ok\":true}}").unwrap();
            }
        });
        (addr, handle)
    }

    fn requests(n: usize) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| ServeRequest {
                id: Some(format!("t{i}")),
                ..ServeRequest::new("OPENQASM 2.0;")
            })
            .collect()
    }

    #[test]
    fn open_loop_times_requests_from_when_they_were_due() {
        let (addr, server) = echo_server();
        // The generator stalls 40 ms before its first send, so the
        // second request (due at 5 ms) goes out ~35 ms late.
        let log = exchange(addr, &requests(2), Pacing::Open(&[0, 5_000]), |i, _| {
            if i == 0 {
                thread::sleep(Duration::from_millis(40));
            }
        })
        .unwrap();
        server.join().unwrap();
        assert_eq!(log[1].due, Duration::from_millis(5));
        assert!(log[1].lag_ms() >= 34.0, "lag {}", log[1].lag_ms());
        let latency = log[1].latency_ms().unwrap();
        assert!(
            latency >= log[1].lag_ms(),
            "latency {latency} excludes the stall"
        );
    }

    #[test]
    fn closed_loop_keeps_its_window_and_answers_everything() {
        let (addr, server) = echo_server();
        let log = exchange(addr, &requests(50), Pacing::Closed(4), |_, _| {}).unwrap();
        server.join().unwrap();
        assert_eq!(log.len(), 50);
        assert!(log.iter().all(|e| e.reply.is_some()));
        assert!(log[..4].iter().all(|e| e.due == Duration::ZERO));
        assert!(log[4..].iter().all(|e| e.due > Duration::ZERO));
    }
}
