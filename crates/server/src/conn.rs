//! Per-connection state for the event loop: a non-blocking socket with
//! explicit read/write buffers.
//!
//! The event loop owns every [`Conn`] outright — no mutexes, no
//! per-connection threads. Reads pull whatever the kernel has into
//! `rbuf` and split it into complete request lines (pipelining falls
//! out naturally: a client may write any number of frames back to
//! back). Writes go through `wbuf`: responses produced in one poll
//! iteration are appended to the buffer and flushed with as few
//! `write` calls as the kernel accepts — many ready responses for one
//! client coalesce into a single syscall/TCP segment instead of one
//! frame per write (the PR-6 small-frame inefficiency).
//!
//! A request frame is at most [`MAX_FRAME_BYTES`] bytes. The newline
//! scan resumes where the previous read's scan stopped, so every byte is
//! scanned once however slowly a long frame arrives. A longer frame is
//! never buffered: the connection reports it through
//! [`Conn::take_oversized`], discards the rest of its input, and closes
//! its write side once the answers already owed (and the rejection) are
//! flushed.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};

use crate::proto::MAX_FRAME_BYTES;

/// How much to ask the kernel for per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet split into complete lines.
    rbuf: Vec<u8>,
    /// Length of the prefix of `rbuf` already scanned: it holds no
    /// newline.
    scanned: usize,
    /// The length (so far) of a frame over [`MAX_FRAME_BYTES`], until the
    /// event loop takes it to answer.
    oversized: Option<usize>,
    /// A frame was over the cap: input is read and dropped from then on.
    discarding: bool,
    /// Rendered response bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// The peer half-closed (EOF) or errored its read side.
    pub read_closed: bool,
    /// A write failed hard; the peer forfeits its remaining answers.
    pub write_dead: bool,
}

impl Conn {
    /// Wraps an accepted stream, switching it to non-blocking mode and
    /// disabling Nagle (responses are latency-sensitive single frames
    /// or already-coalesced bulks; never let the kernel sit on them).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            oversized: None,
            discarding: false,
            wbuf: Vec::new(),
            read_closed: false,
            write_dead: false,
        })
    }

    /// Reads everything currently available, appending complete request
    /// lines to `lines`. Returns `true` if any bytes arrived (the poll
    /// iteration made progress). Sets `read_closed` on EOF or a hard
    /// error; a final unterminated line is still delivered, matching
    /// the blocking reader the event loop replaced.
    pub fn read_available(&mut self, lines: &mut Vec<String>) -> bool {
        if self.read_closed {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    if !self.discarding {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        self.split_lines(lines);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        if self.read_closed && !self.rbuf.is_empty() {
            // EOF with a trailing unterminated line: deliver it.
            let tail = std::mem::take(&mut self.rbuf);
            lines.push(String::from_utf8_lossy(&tail).into_owned());
        }
        progressed
    }

    /// Splits complete `\n`-terminated lines out of `rbuf`, scanning only
    /// the bytes not scanned before. A line, or an unterminated tail,
    /// longer than [`MAX_FRAME_BYTES`] stops reading.
    fn split_lines(&mut self, lines: &mut Vec<String>) {
        let mut start = 0;
        while let Some(pos) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            if end - start > MAX_FRAME_BYTES {
                return self.reject(end - start);
            }
            lines.push(String::from_utf8_lossy(&self.rbuf[start..end]).into_owned());
            start = end + 1;
            self.scanned = start;
        }
        self.rbuf.drain(..start);
        self.scanned = self.rbuf.len();
        if self.rbuf.len() > MAX_FRAME_BYTES {
            self.reject(self.rbuf.len());
        }
    }

    /// Drops the over-long frame of `len` bytes and everything after it.
    fn reject(&mut self, len: usize) {
        self.oversized = Some(len);
        self.discarding = true;
        self.rbuf = Vec::new();
        self.scanned = 0;
    }

    /// The length seen of a frame over [`MAX_FRAME_BYTES`], once: the
    /// caller answers it with a `bad_request`.
    pub fn take_oversized(&mut self) -> Option<usize> {
        self.oversized.take()
    }

    /// `true` once the connection discards its input and still has to
    /// close its write side.
    pub fn closing(&self) -> bool {
        self.discarding && !self.write_dead
    }

    /// Closes the write side (the peer reads EOF after the answers
    /// already delivered); later frames for this connection are dropped.
    pub fn close_write(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        self.write_dead = true;
    }

    /// Appends one response frame to the write buffer. Returns `true`
    /// when the frame *coalesced* — other frames were already waiting,
    /// so this one will share their write call.
    pub fn queue_frame(&mut self, frame: &str) -> bool {
        if self.write_dead {
            return false; // answers to a hung-up client are forfeit
        }
        let coalesced = !self.wbuf.is_empty();
        self.wbuf.reserve(frame.len() + 1);
        self.wbuf.extend_from_slice(frame.as_bytes());
        self.wbuf.push(b'\n');
        coalesced
    }

    /// Pushes buffered response bytes to the kernel until it pushes
    /// back (`WouldBlock`) or the buffer empties. Returns `true` if any
    /// bytes moved. Hard errors mark the connection `write_dead`
    /// (errors are swallowed, never fatal to the server — PR-4 rule).
    pub fn flush(&mut self) -> bool {
        if self.write_dead || self.wbuf.is_empty() {
            return false;
        }
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => {
                    self.write_dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.write_dead = true;
                    break;
                }
            }
        }
        if written > 0 {
            self.wbuf.drain(..written);
        }
        if self.wbuf.is_empty() {
            let _ = self.stream.flush();
        }
        written > 0
    }

    /// `true` when every queued response byte has reached the kernel.
    pub fn flushed(&self) -> bool {
        self.wbuf.is_empty()
    }

    /// `true` once this connection can be dropped: the peer is done
    /// sending and either everything was delivered or delivery is
    /// impossible.
    pub fn finished(&self) -> bool {
        self.read_closed && (self.wbuf.is_empty() || self.write_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (peer, Conn::new(accepted).expect("conn"))
    }

    #[test]
    fn splits_pipelined_lines_and_keeps_partials() {
        let (mut peer, mut conn) = pair();
        peer.write_all(b"one\ntwo\nthree").expect("write");
        peer.flush().expect("flush");
        let mut lines = Vec::new();
        // Poll until both complete lines arrived (TCP may deliver in
        // pieces); the partial third must stay buffered.
        for _ in 0..200 {
            conn.read_available(&mut lines);
            if lines.len() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(lines, ["one", "two"]);
        assert!(!conn.read_closed);
        // Completing the line and closing delivers the rest.
        peer.write_all(b" more\nlast").expect("write");
        drop(peer);
        for _ in 0..200 {
            conn.read_available(&mut lines);
            if conn.read_closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(lines, ["one", "two", "three more", "last"]);
        assert!(conn.read_closed);
    }

    /// Writes `bytes` from a thread while `conn` reads, until `done`.
    fn feed(mut peer: TcpStream, bytes: Vec<u8>) -> std::thread::JoinHandle<TcpStream> {
        std::thread::spawn(move || {
            let _ = peer.write_all(&bytes);
            peer
        })
    }

    fn read_until(
        conn: &mut Conn,
        lines: &mut Vec<String>,
        done: impl Fn(&Conn, &[String]) -> bool,
    ) {
        for _ in 0..20_000 {
            conn.read_available(lines);
            if done(conn, lines) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("timed out");
    }

    #[test]
    fn a_frame_at_the_cap_is_delivered() {
        let (peer, mut conn) = pair();
        let mut bytes = vec![b'x'; MAX_FRAME_BYTES];
        bytes.extend_from_slice(b"\nnext\n");
        let writer = feed(peer, bytes);
        let mut lines = Vec::new();
        read_until(&mut conn, &mut lines, |_, l| l.len() == 2);
        assert_eq!(lines[0].len(), MAX_FRAME_BYTES);
        assert_eq!(lines[1], "next");
        assert_eq!(conn.take_oversized(), None);
        assert!(!conn.closing());
        drop(writer.join());
    }

    #[test]
    fn a_frame_past_the_cap_is_dropped_and_closes_the_connection() {
        let (peer, mut conn) = pair();
        let mut bytes = b"before\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'x', MAX_FRAME_BYTES + 1));
        bytes.extend_from_slice(b"\nafter\n");
        let writer = feed(peer, bytes);
        let mut lines = Vec::new();
        read_until(&mut conn, &mut lines, |c, _| c.closing());
        let len = conn.take_oversized().expect("the long frame is reported");
        assert!(len > MAX_FRAME_BYTES);
        assert_eq!(conn.take_oversized(), None, "reported once");
        // Nothing past the long frame is delivered, and nothing of it
        // stays buffered.
        let mut peer = writer.join().expect("writer");
        read_until(&mut conn, &mut lines, |_, _| true);
        assert_eq!(lines, ["before"]);
        assert!(conn.rbuf.capacity() == 0);
        // The answer goes out, then the write side closes.
        conn.queue_frame("rejected");
        while !conn.flushed() {
            conn.flush();
        }
        conn.close_write();
        assert!(!conn.closing());
        peer.shutdown(Shutdown::Write).expect("half-close");
        let mut got = String::new();
        peer.read_to_string(&mut got).expect("read to EOF");
        assert_eq!(got, "rejected\n");
    }

    #[test]
    fn coalesces_queued_frames_into_one_stream() {
        let (mut peer, mut conn) = pair();
        assert!(!conn.queue_frame("alpha"), "first frame starts the buffer");
        assert!(conn.queue_frame("beta"), "second frame coalesces");
        assert!(conn.queue_frame("gamma"), "third frame coalesces");
        while !conn.flushed() {
            conn.flush();
        }
        drop(conn);
        let mut got = String::new();
        peer.read_to_string(&mut got).expect("read");
        assert_eq!(got, "alpha\nbeta\ngamma\n");
    }

    #[test]
    fn finished_requires_eof_and_empty_write_buffer() {
        let (peer, mut conn) = pair();
        conn.queue_frame("pending");
        drop(peer);
        let mut lines = Vec::new();
        for _ in 0..200 {
            conn.read_available(&mut lines);
            if conn.read_closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(conn.read_closed);
        // Undelivered bytes hold the connection open until a flush
        // either delivers them or proves the peer gone.
        while !conn.finished() {
            conn.flush();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
