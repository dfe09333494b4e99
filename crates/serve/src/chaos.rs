//! An in-process chaos TCP proxy for hostile-network testing
//! (DESIGN.md §12.4).
//!
//! [`ChaosProxy`] sits between a client and a daemon on loopback,
//! parses the raw [`cupid_model::wire`] frame boundaries flowing
//! through it (magic + kind + length prefix — it never validates
//! checksums or decodes payloads), and injects one fault per frame as
//! decided by a caller-supplied schedule:
//!
//! * [`Fault::Delay`] — hold the frame, then forward it intact.
//! * [`Fault::Drop`] — swallow the frame; the connection stays up.
//! * [`Fault::Reset`] — tear the whole connection down mid-exchange.
//! * [`Fault::PartialWrite`] — forward only half the frame's bytes,
//!   then tear the connection down (a truncated frame on the wire).
//! * [`Fault::BlackHole`] — swallow this frame and everything after it
//!   in the same direction while keeping the connection open: the
//!   reading side sees pure silence until its own deadline fires.
//!
//! The schedule is an arbitrary `Fn(FrameCtx) -> Fault`, keyed by
//! connection id, direction and frame index — [`FaultMix::schedule`]
//! builds the standard seeded-random one, so a failing chaos run
//! reproduces from its seed alone. Everything here is std-only
//! (threads + blocking sockets with poll-loop timeouts), mirroring the
//! daemon's own runtime model.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cupid_model::wire::is_timeout;

use crate::retry::splitmix64;

/// Which way a frame is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Request frames: client → daemon.
    ClientToServer,
    /// Response frames: daemon → client.
    ServerToClient,
}

/// The coordinates of one frame in a proxied exchange — what a
/// schedule decides faults from. All three fields are deterministic
/// for a fixed connect/request order.
#[derive(Debug, Clone, Copy)]
pub struct FrameCtx {
    /// Proxied connection index, in accept order (0-based).
    pub conn: u64,
    /// Which way the frame is going.
    pub direction: Direction,
    /// Frame index within this connection and direction (0-based).
    pub frame: u64,
}

/// What to do to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward untouched.
    Pass,
    /// Hold the frame this long, then forward it intact.
    Delay(Duration),
    /// Swallow the frame; keep pumping the ones after it.
    Drop,
    /// Tear the proxied connection down (both directions, both legs).
    Reset,
    /// Forward only the first half of the frame's bytes, then tear the
    /// connection down — a truncated frame from the reader's view.
    PartialWrite,
    /// Swallow this frame and every later byte in this direction,
    /// keeping the connection open: the reader gets silence, not EOF.
    BlackHole,
}

/// Index of a fault in the injection counters (Pass is not counted).
fn fault_slot(fault: Fault) -> Option<usize> {
    match fault {
        Fault::Pass => None,
        Fault::Delay(_) => Some(0),
        Fault::Drop => Some(1),
        Fault::Reset => Some(2),
        Fault::PartialWrite => Some(3),
        Fault::BlackHole => Some(4),
    }
}

/// Labels matching the counter slots of [`ChaosProxy::injected`].
const FAULT_LABELS: [&str; 5] = ["delay", "drop", "reset", "partial_write", "black_hole"];

/// A weighted random fault profile: each frame rolls one `u32` from
/// the seeded stream and picks the first threshold it falls under, so
/// `FaultMix { drop: 5, out_of: 100, .. }` drops ~5% of frames. Equal
/// [`FrameCtx`] always rolls the same fault for the same seed.
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Weight of [`Fault::Delay`] (delay drawn up to `max_delay`).
    pub delay: u32,
    /// Weight of [`Fault::Drop`].
    pub drop: u32,
    /// Weight of [`Fault::Reset`].
    pub reset: u32,
    /// Weight of [`Fault::PartialWrite`].
    pub partial_write: u32,
    /// Weight of [`Fault::BlackHole`].
    pub black_hole: u32,
    /// Total weight of one roll; the remainder after the fault weights
    /// is [`Fault::Pass`]. Must be at least the sum of the weights.
    pub out_of: u32,
    /// Upper bound of injected delays (the draw is uniform in
    /// `[max_delay/4, max_delay]`, keeping delays meaningfully long).
    pub max_delay: Duration,
}

impl FaultMix {
    /// A profile that injects nothing (useful as the clean baseline
    /// with identical proxy topology).
    pub fn clean() -> FaultMix {
        FaultMix {
            delay: 0,
            drop: 0,
            reset: 0,
            partial_write: 0,
            black_hole: 0,
            out_of: 100,
            max_delay: Duration::ZERO,
        }
    }

    /// Build the seeded schedule function for this mix. The roll for a
    /// frame depends only on `(seed, conn, direction, frame)`, so runs
    /// with the same seed and connect order inject identical faults.
    pub fn schedule(self, seed: u64) -> impl Fn(FrameCtx) -> Fault + Send + Sync + 'static {
        move |ctx: FrameCtx| {
            let dir_bit = match ctx.direction {
                Direction::ClientToServer => 0x5bd1_e995u64,
                Direction::ServerToClient => 0xc2b2_ae35u64,
            };
            let key = splitmix64(
                seed ^ splitmix64(ctx.conn ^ dir_bit) ^ ctx.frame.wrapping_mul(0x9E37_79B9),
            );
            let total = self
                .out_of
                .max(self.delay + self.drop + self.reset + self.partial_write + self.black_hole)
                .max(1);
            let mut roll = (key % u64::from(total)) as u32;
            for (fault, weight) in [
                (Fault::Drop, self.drop),
                (Fault::Reset, self.reset),
                (Fault::PartialWrite, self.partial_write),
                (Fault::BlackHole, self.black_hole),
            ] {
                if roll < weight {
                    return fault;
                }
                roll -= weight;
            }
            if roll < self.delay {
                let max = self.max_delay.as_millis().max(1) as u64;
                let span = max - max / 4 + 1;
                let ms = max / 4 + splitmix64(key) % span;
                return Fault::Delay(Duration::from_millis(ms));
            }
            Fault::Pass
        }
    }
}

/// How long a pump waits in one blocking read before re-checking the
/// proxy's stop flag — the granularity of [`ChaosProxy::stop`], not a
/// protocol deadline.
const POLL: Duration = Duration::from_millis(20);

/// Frame header: 4-byte magic + 1-byte kind + 4-byte LE length.
const HEADER: usize = 9;
/// Trailer: the 8-byte FNV checksum after the payload.
const TRAILER: usize = 8;

/// Shared state of a running proxy.
struct ProxyShared {
    upstream: SocketAddr,
    stop: AtomicBool,
    schedule: Box<dyn Fn(FrameCtx) -> Fault + Send + Sync>,
    conns: AtomicU64,
    injected: [AtomicU64; FAULT_LABELS.len()],
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A live loopback proxy in front of `upstream`, injecting faults per
/// frame as its schedule dictates. Point clients at
/// [`ChaosProxy::addr`] instead of the daemon; call
/// [`ChaosProxy::stop`] to tear it down (joining every pump thread).
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an OS-assigned loopback port forwarding to
    /// `upstream`, injecting per the schedule (see
    /// [`FaultMix::schedule`] for the standard seeded one).
    pub fn start(
        upstream: SocketAddr,
        schedule: impl Fn(FrameCtx) -> Fault + Send + Sync + 'static,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            stop: AtomicBool::new(false),
            schedule: Box::new(schedule),
            conns: AtomicU64::new(0),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ChaosProxy { addr, shared, accept: Some(accept) })
    }

    /// The loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Faults injected so far, labelled `delay` / `drop` / `reset` /
    /// `partial_write` / `black_hole` — lets a suite assert its seed
    /// actually exercised every fault class.
    pub fn injected(&self) -> Vec<(&'static str, u64)> {
        FAULT_LABELS
            .iter()
            .zip(&self.shared.injected)
            .map(|(label, n)| (*label, n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Connections proxied so far.
    pub fn connections(&self) -> u64 {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Stop accepting, unblock and join every pump thread, drop the
    /// listener. Idempotent via take(); in-flight client calls fail
    /// with transport errors, which is rather the point.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        TcpStream::connect(self.addr).ok();
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        let pumps =
            std::mem::take(&mut *self.shared.pumps.lock().unwrap_or_else(|e| e.into_inner()));
        for pump in pumps {
            pump.join().ok();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(client) = conn else { continue };
        let conn_id = shared.conns.fetch_add(1, Ordering::Relaxed);
        let Ok(server) = TcpStream::connect(shared.upstream) else {
            client.shutdown(Shutdown::Both).ok();
            continue;
        };
        client.set_nodelay(true).ok();
        server.set_nodelay(true).ok();
        let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        let up = PumpEnd { from: client_rx, to: server, direction: Direction::ClientToServer };
        let down = PumpEnd { from: server_rx, to: client, direction: Direction::ServerToClient };
        let mut pumps = shared.pumps.lock().unwrap_or_else(|e| e.into_inner());
        for end in [up, down] {
            let shared = Arc::clone(shared);
            pumps.push(std::thread::spawn(move || pump(end, conn_id, &shared)));
        }
    }
}

/// One direction of a proxied connection.
struct PumpEnd {
    from: TcpStream,
    to: TcpStream,
    direction: Direction,
}

/// Why a pump stopped reading.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean EOF before any byte of the current frame.
    Eof,
    /// The proxy is stopping, or the socket died.
    Abort,
}

/// Fill `buf` from a poll-looped blocking read, aborting on proxy stop
/// or socket death. EOF at offset 0 is clean; EOF mid-buffer is a
/// truncated frame from upstream and aborts (nothing sane to forward).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &ProxyShared) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.stop.load(Ordering::SeqCst) {
            return ReadOutcome::Abort;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 { ReadOutcome::Eof } else { ReadOutcome::Abort };
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Abort,
        }
    }
    ReadOutcome::Full
}

/// Sleep `total` in poll-sized chunks so `stop()` is never held up by
/// a long injected delay.
fn chunked_sleep(total: Duration, shared: &ProxyShared) {
    let mut left = total;
    while !left.is_zero() && !shared.stop.load(Ordering::SeqCst) {
        let step = left.min(POLL);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// Pump frames one way, injecting scheduled faults. Runs until either
/// side closes, a Reset/PartialWrite tears the connection down, or the
/// proxy stops.
fn pump(mut end: PumpEnd, conn_id: u64, shared: &ProxyShared) {
    end.from.set_read_timeout(Some(POLL)).ok();
    end.to.set_write_timeout(Some(Duration::from_secs(5))).ok();
    let mut frame_index = 0u64;
    let mut black_holed = false;
    loop {
        let mut header = [0u8; HEADER];
        match read_full(&mut end.from, &mut header, shared) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof => {
                // Propagate the half-close so the far side's reader
                // unblocks (the daemon parks on idle peers otherwise).
                end.to.shutdown(Shutdown::Write).ok();
                return;
            }
            ReadOutcome::Abort => {
                tear_down(&end);
                return;
            }
        }
        let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
        let mut body = vec![0u8; len + TRAILER];
        if !matches!(read_full(&mut end.from, &mut body, shared), ReadOutcome::Full) {
            tear_down(&end);
            return;
        }
        let fault = if black_holed {
            Fault::BlackHole
        } else {
            (shared.schedule)(FrameCtx {
                conn: conn_id,
                direction: end.direction,
                frame: frame_index,
            })
        };
        frame_index += 1;
        if let Some(slot) = fault_slot(fault) {
            if !black_holed {
                shared.injected[slot].fetch_add(1, Ordering::Relaxed);
            }
        }
        match fault {
            Fault::Pass => {
                if forward(&mut end.to, &header, &body).is_err() {
                    tear_down(&end);
                    return;
                }
            }
            Fault::Delay(by) => {
                chunked_sleep(by, shared);
                if forward(&mut end.to, &header, &body).is_err() {
                    tear_down(&end);
                    return;
                }
            }
            Fault::Drop => {}
            Fault::Reset => {
                tear_down(&end);
                return;
            }
            Fault::PartialWrite => {
                let whole = [&header[..], &body[..]].concat();
                end.to.write_all(&whole[..whole.len() / 2]).ok();
                tear_down(&end);
                return;
            }
            Fault::BlackHole => {
                // Keep consuming frames so the sender never blocks on a
                // full send buffer, but forward nothing ever again.
                black_holed = true;
            }
        }
    }
}

/// Write one frame through, retrying timeout-kind write errors.
fn forward(to: &mut TcpStream, header: &[u8], body: &[u8]) -> std::io::Result<()> {
    to.write_all(header)?;
    to.write_all(body)
}

/// Tear both legs of the proxied connection down.
fn tear_down(end: &PumpEnd) {
    end.from.shutdown(Shutdown::Both).ok();
    end.to.shutdown(Shutdown::Both).ok();
}
