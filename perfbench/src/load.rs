//! Load generators speaking the public RPC codec (`Frame<RpcRequest>` /
//! `Frame<RpcResponse>`, each a little-endian `u32` length prefix plus
//! the encoded frame) over one connection.

use crate::procstat::{self, ThreadSample};
use crate::workload::Op;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use theta_codec::{Decode, Encode};
use theta_service::{Frame, RpcRequest, RpcResponse};

/// What became of one request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The reply's output bytes, and the server-side latency it reports.
    Reply { output: Vec<u8>, server_us: u64 },
    /// The node refused the request at a capacity bound.
    Refused,
    /// The request failed, or no reply came.
    Failed(String),
}

/// One request's life as the client saw it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Index of the op in the generated inputs.
    pub op: usize,
    /// When the request was due (a closed loop sends when due).
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its reply was read.
    pub done: Instant,
    pub outcome: Outcome,
}

impl Record {
    /// Client-observed latency, from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(crate::cluster::RPC_TIMEOUT))?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, id: u64, op: &Op) -> std::io::Result<()> {
    let body = Frame {
        id,
        body: RpcRequest::Protocol(op.request.clone()),
    }
    .encoded();
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
    stream.write_all(&buf)
}

fn recv(stream: &mut TcpStream) -> std::io::Result<(u64, Outcome)> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    let frame = Frame::<RpcResponse>::decoded(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let outcome = match frame.body {
        RpcResponse::ProtocolResult {
            output,
            server_latency_us,
        } => Outcome::Reply {
            output,
            server_us: server_latency_us,
        },
        RpcResponse::Overloaded => Outcome::Refused,
        RpcResponse::Error(msg) => Outcome::Failed(msg),
        other => Outcome::Failed(format!("unexpected response {other:?}")),
    };
    Ok((frame.id, outcome))
}

/// Closed loop on one thread: sends one request at a time until
/// `deadline`. `next_op` hands out inputs in order.
pub fn closed_loop(
    addr: SocketAddr,
    deadline: Instant,
    next_op: &mut dyn FnMut(usize) -> Op,
) -> Vec<Record> {
    let mut out = Vec::new();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            let now = Instant::now();
            let outcome = Outcome::Failed(format!("connect: {e}"));
            out.push(Record {
                op: 0,
                due: now,
                sent: now,
                done: now,
                outcome,
            });
            return out;
        }
    };
    let mut i = 0;
    while Instant::now() < deadline {
        let op = next_op(i);
        let sent = Instant::now();
        let reply = send(&mut stream, i as u64, &op).and_then(|()| recv(&mut stream));
        let (outcome, broken) = match reply {
            Ok((id, outcome)) if id == i as u64 => (outcome, false),
            Ok((id, _)) => (Outcome::Failed(format!("reply {id} to request {i}")), true),
            Err(e) => (Outcome::Failed(format!("rpc: {e}")), true),
        };
        out.push(Record {
            op: i,
            due: sent,
            sent,
            done: Instant::now(),
            outcome,
        });
        if broken {
            break;
        }
        i += 1;
    }
    out
}

/// Open loop: the calling thread writes request `i` at `start +
/// schedule[i]` whatever the replies do, while a `bench-recv` thread
/// reads replies. Returns the records and each request's send lateness;
/// the receiver's last CPU sample goes to `exited`.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    schedule: &[Duration],
    ops: &[Op],
    exited: &mut Vec<ThreadSample>,
) -> (Vec<Record>, Vec<Duration>) {
    let fail_all = |why: String| {
        let records = schedule
            .iter()
            .enumerate()
            .map(|(i, at)| Record {
                op: i,
                due: start + *at,
                sent: start + *at,
                done: start + *at,
                outcome: Outcome::Failed(why.clone()),
            })
            .collect();
        (records, Vec::new())
    };
    let mut writer = match connect(addr) {
        Ok(s) => s,
        Err(e) => return fail_all(format!("connect: {e}")),
    };
    let mut reader = match writer.try_clone() {
        Ok(s) => s,
        Err(e) => return fail_all(format!("clone: {e}")),
    };
    let count = schedule.len();
    std::thread::scope(|scope| {
        let receiver = std::thread::Builder::new()
            .name("bench-recv".into())
            .spawn_scoped(scope, move || {
                let mut replies: HashMap<u64, (Instant, Outcome)> = HashMap::new();
                while replies.len() < count {
                    match recv(&mut reader) {
                        Ok((id, outcome)) => {
                            replies.insert(id, (Instant::now(), outcome));
                        }
                        Err(_) => break,
                    }
                }
                (replies, procstat::sample_self())
            })
            .expect("spawn the open-loop receiver");
        let mut sent = Vec::with_capacity(count);
        for (i, (at, op)) in schedule.iter().zip(ops).enumerate() {
            let due = start + *at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at_send = Instant::now();
            if send(&mut writer, i as u64, op).is_err() {
                // The receiver sees the connection close and stops.
                let _ = writer.shutdown(std::net::Shutdown::Both);
                break;
            }
            sent.push(at_send);
        }
        let (mut replies, last) = receiver.join().expect("open-loop receiver panicked");
        exited.extend(last);
        let mut records = Vec::with_capacity(count);
        let mut lateness = Vec::with_capacity(sent.len());
        for (i, at) in schedule.iter().enumerate() {
            let due = start + *at;
            let Some(&at_send) = sent.get(i) else {
                let outcome = Outcome::Failed("never sent".into());
                records.push(Record {
                    op: i,
                    due,
                    sent: due,
                    done: due,
                    outcome,
                });
                continue;
            };
            lateness.push(at_send.saturating_duration_since(due));
            let (done, outcome) = replies
                .remove(&(i as u64))
                .unwrap_or_else(|| (Instant::now(), Outcome::Failed("no reply".into())));
            records.push(Record {
                op: i,
                due,
                sent: at_send,
                done,
                outcome,
            });
        }
        (records, lateness)
    })
}
