//! A raw protocol connection: one socket, the default codec, no threads.
//!
//! The stock `Client` spawns a reader thread per connection; a generator
//! that owns hundreds of sockets on two cores cannot afford that. `Conn`
//! is the blocking half used during set-up (handshake, subscriptions,
//! uploads, enrolments, `Stats`); once a run starts, the write half stays
//! with the sender and a clone of the socket moves to the receiver, which
//! multiplexes every socket on one `reef_wire::poll::Epoll`.

use crate::Res;
use reef_wire::{
    ClientFrame, CodecKind, Frame, Request, Response, ServerFrame, ServerStats, WireCodec,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a blocking set-up read or any write may stall before the run
/// is abandoned instead of hanging the harness.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Requests kept in flight while a batch of set-up requests is pipelined.
const PIPELINE_WINDOW: usize = 256;

/// The codec every harness connection speaks: the workspace default.
pub fn codec() -> &'static dyn WireCodec {
    CodecKind::default().codec()
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    /// The socket; the sender writes to it during a run.
    pub stream: TcpStream,
    next_corr: u64,
    scratch: Vec<u8>,
}

impl Conn {
    /// Connect to `addr` and complete the `Hello` handshake as `name`.
    pub fn connect(addr: SocketAddr, name: &str) -> Res<Conn> {
        let mut attempts = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                // A momentarily full accept backlog during a many-socket
                // ramp-up is not a failure.
                Err(err) if attempts < 50 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    let _ = err;
                }
                Err(err) => return Err(format!("connect {name} to {addr}: {err}").into()),
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            next_corr: 1,
            scratch: Vec::with_capacity(4096),
        };
        match conn.request(Request::Hello {
            version: codec().version(),
            client: name.to_owned(),
        })? {
            Response::Hello { .. } => Ok(conn),
            other => Err(format!("{name}: unexpected Hello reply {other:?}").into()),
        }
    }

    /// Encode `frame` and put it on the socket with a single `write`.
    /// (The stock `Client` issues three writes per frame; the generator
    /// coalesces them so its own syscalls stay out of the measurement.)
    pub fn send(&mut self, frame: &ClientFrame) -> Res<usize> {
        let encoded = codec().encode_client(frame)?;
        self.send_encoded(&encoded)
    }

    /// Put an already encoded frame on the socket with a single `write`.
    pub fn send_encoded(&mut self, frame: &Frame) -> Res<usize> {
        self.scratch.clear();
        let len = frame.write_to(&mut self.scratch)?;
        self.stream.write_all(&self.scratch)?;
        Ok(len)
    }

    /// Block until the reply to `corr` arrives; deliveries and notices
    /// that arrive first are dropped (set-up publishes nothing, and notices
    /// are re-derived from `Stats` once set-up settles).
    fn reply_to(&mut self, corr: u64) -> Res<Response> {
        loop {
            let frame = Frame::read_from(&mut self.stream)?.ok_or("daemon closed the socket")?;
            if let ServerFrame::Reply {
                corr: got,
                response,
            } = codec().decode_server(&frame)?
            {
                if got == corr {
                    return Ok(response);
                }
                return Err(format!("reply to {got} while waiting for {corr}").into());
            }
        }
    }

    /// One blocking request/reply round trip.
    pub fn request(&mut self, request: Request) -> Res<Response> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.send(&ClientFrame { corr, request })?;
        self.reply_to(corr)
    }

    /// Pipeline `requests` with a bounded window and return the replies in
    /// request order. Error replies are returned, not raised.
    pub fn request_all(
        &mut self,
        requests: impl IntoIterator<Item = Request>,
    ) -> Res<Vec<Response>> {
        let mut replies = Vec::new();
        let mut first_unanswered = self.next_corr;
        for request in requests {
            if self.next_corr - first_unanswered >= PIPELINE_WINDOW as u64 {
                replies.push(self.reply_to(first_unanswered)?);
                first_unanswered += 1;
            }
            let corr = self.next_corr;
            self.next_corr += 1;
            self.send(&ClientFrame { corr, request })?;
        }
        while first_unanswered < self.next_corr {
            replies.push(self.reply_to(first_unanswered)?);
            first_unanswered += 1;
        }
        Ok(replies)
    }

    /// Fetch the daemon's broker, wire and federation counters.
    pub fn stats(&mut self) -> Res<ServerStats> {
        match self.request(Request::Stats)? {
            Response::Stats {
                broker,
                wire,
                federation,
            } => Ok(ServerStats {
                broker,
                wire,
                federation,
            }),
            other => Err(format!("unexpected Stats reply {other:?}").into()),
        }
    }
}
