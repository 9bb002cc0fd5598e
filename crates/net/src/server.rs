//! Accept-loop frame server dispatching to a [`Service`].
//!
//! One acceptor thread plus one thread per live connection (the dist
//! runtime has a handful of long-lived worker connections, not a
//! thundering herd). Each frame is handled inside the `dasc-pool`
//! work-stealing pool via [`dasc_pool::in_pool`], so a compute-heavy
//! handler (e.g. a reduce task) parallelizes across the machine while
//! the connection threads stay cheap blocking loops.
//!
//! Graceful shutdown mirrors `dasc-serve`: set the flag, self-connect
//! to unblock `accept`, join everything. Connection threads check the
//! flag before every read, and an idle one wakes at its read timeout, a
//! fixed 200 ms, so shutdown takes at most that long once in-flight
//! handlers return, even while peers keep sending. The server has no
//! tuning knobs; a client's timeouts live in
//! [`ClientConfig`](crate::ClientConfig).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::frame::{read_frame, write_frame};

/// Identifies one accepted connection for a [`Service`]'s lifetime
/// callbacks. Monotonically increasing per server, never reused.
pub type ConnId = u64;

/// Per-frame protocol logic plugged into a [`Server`].
pub trait Service: Send + Sync + 'static {
    /// Handle one request frame; return `Some((msg_type, payload))` to
    /// reply, or `None` to close the connection without replying (used
    /// by fault-injection harnesses to simulate a dying peer).
    fn handle(&self, conn: ConnId, msg_type: u16, payload: &[u8]) -> Option<(u16, Vec<u8>)>;

    /// Called exactly once when a connection ends (hangup, protocol
    /// error, or shutdown). The coordinator uses this to re-queue a
    /// dead worker's in-flight tasks promptly.
    fn on_disconnect(&self, _conn: ConnId) {}
}

/// Blanket impl so simple servers can pass a closure.
impl<F> Service for F
where
    F: Fn(ConnId, u16, &[u8]) -> Option<(u16, Vec<u8>)> + Send + Sync + 'static,
{
    fn handle(&self, conn: ConnId, msg_type: u16, payload: &[u8]) -> Option<(u16, Vec<u8>)> {
        self(conn, msg_type, payload)
    }
}

/// Idle read timeout per connection. It bounds shutdown latency, since
/// parked connection threads re-check the shutdown flag on timeout.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// A frame server ready to bind.
pub struct Server<S: Service> {
    service: Arc<S>,
}

struct Shared<S: Service> {
    service: Arc<S>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server: bound address + graceful-shutdown control.
pub struct ServerHandle<S: Service> {
    addr: SocketAddr,
    shared: Arc<Shared<S>>,
    acceptor: Option<JoinHandle<()>>,
}

impl<S: Service> Server<S> {
    /// Wrap a service.
    pub fn new(service: S) -> Self {
        Self {
            service: Arc::new(service),
        }
    }

    /// Bind `addr` (port 0 picks a free port), spawn the acceptor, and
    /// return a handle. Serving begins immediately.
    pub fn start(self, addr: &str) -> io::Result<ServerHandle<S>> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: self.service,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    let worker = {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || serve_connection(&shared, stream, conn))
                    };
                    shared.conns.lock().expect("conns lock").push(worker);
                }
            })
        };

        Ok(ServerHandle {
            addr: local,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

impl<S: Service> ServerHandle<S> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this server.
    pub fn service(&self) -> &S {
        &self.shared.service
    }

    /// Block until the acceptor exits on its own (fatal listener error
    /// or [`ServerHandle::shutdown`] from another thread won't happen —
    /// this is for run-until-killed daemons like the CLI coordinator).
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.join_conns();
    }

    /// Stop accepting, let in-flight handlers finish, join all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a self-connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.join_conns();
    }

    fn join_conns(&self) {
        loop {
            let Some(h) = self.shared.conns.lock().expect("conns lock").pop() else {
                break;
            };
            let _ = h.join();
        }
    }
}

/// Serve one connection until hangup, protocol error, or shutdown.
fn serve_connection<S: Service>(shared: &Shared<S>, stream: TcpStream, conn: ConnId) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut stream = stream;
    // The flag is checked before every read, not only on an idle
    // timeout: a peer that keeps sending would otherwise never let the
    // connection see it, and shutdown would wait on it forever.
    while !shared.shutdown.load(Ordering::SeqCst) {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) if e.is_timeout() => continue,
            // Clean hangup, torn frame, or protocol garbage: the
            // counters already recorded decode errors; just drop.
            Err(_) => break,
        };
        let service = &shared.service;
        let reply = dasc_pool::in_pool(|| service.handle(conn, frame.msg_type, &frame.payload));
        match reply {
            Some((msg_type, payload)) => {
                if write_frame(&mut stream, msg_type, &payload).is_err() {
                    break;
                }
            }
            None => break,
        }
    }
    shared.service.on_disconnect(conn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use std::sync::atomic::AtomicUsize;

    fn quick_client(addr: SocketAddr) -> Client {
        Client::new(
            addr.to_string(),
            ClientConfig {
                connect_timeout: Duration::from_millis(500),
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                backoff_base: Duration::from_millis(5),
                backoff_max: Duration::from_millis(20),
                max_connect_attempts: 3,
            },
        )
    }

    #[test]
    fn serves_concurrent_clients() {
        let hits = Arc::new(AtomicUsize::new(0));
        let handle = {
            let hits = Arc::clone(&hits);
            Server::new(move |_conn: ConnId, msg_type: u16, payload: &[u8]| {
                hits.fetch_add(1, Ordering::Relaxed);
                let mut reply = payload.to_vec();
                reply.reverse();
                Some((msg_type + 1, reply))
            })
            .start("127.0.0.1:0")
            .expect("start")
        };
        let addr = handle.addr();
        thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let mut client = quick_client(addr);
                    for i in 0..5u16 {
                        let reply = client.call(i, b"abc").expect("call");
                        assert_eq!(reply.msg_type, i + 1, "thread {t}");
                        assert_eq!(reply.payload, b"cba");
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 20);
        handle.shutdown();
    }

    #[test]
    fn disconnect_callback_fires_once_per_connection() {
        struct Tracking {
            drops: AtomicUsize,
        }
        impl Service for Tracking {
            fn handle(&self, _c: ConnId, t: u16, p: &[u8]) -> Option<(u16, Vec<u8>)> {
                Some((t, p.to_vec()))
            }
            fn on_disconnect(&self, _c: ConnId) {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        let handle = Server::new(Tracking {
            drops: AtomicUsize::new(0),
        })
        .start("127.0.0.1:0")
        .expect("start");
        let addr = handle.addr();
        for _ in 0..3 {
            let mut c = quick_client(addr);
            c.call(1, b"x").expect("call");
            c.disconnect();
        }
        // Hangups are noticed on the connection threads' next read.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.service().drops.load(Ordering::Relaxed) < 3
            && std::time::Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(handle.service().drops.load(Ordering::Relaxed), 3);
        handle.shutdown();
    }

    #[test]
    fn none_reply_drops_the_connection() {
        let handle = Server::new(
            |_c: ConnId, t: u16, _p: &[u8]| if t == 0 { None } else { Some((t, Vec::new())) },
        )
        .start("127.0.0.1:0")
        .expect("start");
        let mut client = quick_client(handle.addr());
        assert!(client.call(1, b"ok").is_ok());
        // msg_type 0 → handler returns None → peer closes instead of
        // replying; the client observes a hangup/timeout error.
        assert!(client.call(0, b"die").is_err());
        // A fresh call redials fine.
        assert!(client.call(2, b"again").is_ok());
        handle.shutdown();
    }

    #[test]
    fn garbage_bytes_do_not_kill_the_server() {
        let handle = Server::new(|_c: ConnId, t: u16, p: &[u8]| Some((t, p.to_vec())))
            .start("127.0.0.1:0")
            .expect("start");
        {
            use std::io::Write;
            let mut s = TcpStream::connect(handle.addr()).expect("connect");
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("garbage");
        }
        let mut client = quick_client(handle.addr());
        assert_eq!(
            client.call(5, b"still up").expect("call").payload,
            b"still up"
        );
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_quickly() {
        let handle = Server::new(|_c: ConnId, t: u16, p: &[u8]| Some((t, p.to_vec())))
            .start("127.0.0.1:0")
            .expect("start");
        // Park an idle connection to exercise the timeout wake-up path.
        let mut idle = quick_client(handle.addr());
        idle.call(1, b"x").expect("call");
        let begin = std::time::Instant::now();
        handle.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            begin.elapsed()
        );
    }

    #[test]
    fn shutdown_joins_while_a_peer_keeps_sending() {
        // A peer calling far faster than the read timeout never leaves
        // its connection idle; shutdown must still end it.
        let handle = Server::new(|_c: ConnId, t: u16, p: &[u8]| Some((t, p.to_vec())))
            .start("127.0.0.1:0")
            .expect("start");
        let mut busy = quick_client(handle.addr());
        busy.call(1, b"x").expect("call");
        let caller = thread::spawn(move || while busy.call(1, b"x").is_ok() {});
        // Bounded, so a shutdown that never returns fails the test.
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            handle.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown within 5 s");
        caller.join().expect("caller");
    }
}
