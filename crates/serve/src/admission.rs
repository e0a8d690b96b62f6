//! Bounded admission queue with load-shedding and drain.
//!
//! The accept loop offers each new connection here; workers block on
//! [`Admission::take`]. A full queue bounces the connection back to
//! the acceptor, which sheds it with a structured `429` and a
//! `Retry-After` derived from observed latencies — the service
//! degrades by refusing crisply, never by queueing unboundedly.
//! [`Admission::drain`] flips the queue into shutdown mode: `offer`
//! refuses everything and `take` returns `None` once the backlog is
//! empty, so workers exit deterministically.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};

struct QueueState {
    queue: VecDeque<TcpStream>,
    draining: bool,
}

/// The bounded connection queue.
pub struct Admission {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

/// Result of offering a connection.
pub enum Offer {
    /// Enqueued; a worker will pick it up.
    Accepted,
    /// Queue full — shed it (the stream comes back for the 429).
    Full(TcpStream),
    /// Server draining — refuse it (the stream comes back for the
    /// 503).
    Draining(TcpStream),
}

impl Admission {
    /// A queue holding at most `cap` waiting connections.
    pub fn new(cap: usize) -> Self {
        Admission {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Offers a connection; never blocks.
    pub fn offer(&self, stream: TcpStream) -> Offer {
        let mut st = self.lock();
        if st.draining {
            return Offer::Draining(stream);
        }
        if st.queue.len() >= self.cap {
            return Offer::Full(stream);
        }
        st.queue.push_back(stream);
        drop(st);
        self.cv.notify_one();
        Offer::Accepted
    }

    /// Blocks until a connection is available; `None` once draining
    /// and empty (the worker's exit signal).
    pub fn take(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(stream) = st.queue.pop_front() {
                return Some(stream);
            }
            if st.draining {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Switches to drain mode and wakes every blocked worker.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.cv.notify_all();
    }

    /// Connections currently waiting for a worker.
    pub fn backlog(&self) -> usize {
        self.lock().queue.len()
    }
}
