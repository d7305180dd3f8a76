//! One-shot channel LCO: a future with channel-flavoured error handling
//! (dropping the sender yields `Err(RecvError)` instead of a panic).

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

use crate::runtime::{block_until, Blocked};

enum Slot<T> {
    Empty,
    Value(T),
    SenderDropped,
    Taken,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    blocked: Blocked,
}

/// Sending half of a [`oneshot`] channel.
pub struct OneshotSender<T> {
    shared: Option<Arc<Shared<T>>>,
}

/// Receiving half of a [`oneshot`] channel.
pub struct OneshotReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// The receiver was dropped before the value was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Creates a one-shot SPSC channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot::Empty),
        blocked: Blocked::default(),
    });
    (
        OneshotSender {
            shared: Some(Arc::clone(&shared)),
        },
        OneshotReceiver { shared },
    )
}

impl<T> OneshotSender<T> {
    /// Sends the value; fails if the receiver is gone.
    pub fn send(mut self, value: T) -> Result<(), SendError<T>> {
        let shared = self.shared.take().expect("oneshot sender reused");
        // Receiver gone: Arc count is 1 (only us).
        if Arc::strong_count(&shared) == 1 {
            return Err(SendError(value));
        }
        *shared.slot.lock() = Slot::Value(value);
        shared.blocked.wake_all();
        Ok(())
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            *shared.slot.lock() = Slot::SenderDropped;
            shared.blocked.wake_all();
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Result<T, RecvError>> {
        let mut slot = self.shared.slot.lock();
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Value(v) => Some(Ok(v)),
            Slot::SenderDropped => Some(Err(RecvError)),
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Blocks until a value (or sender drop) arrives; workers help-execute.
    pub fn recv(self) -> Result<T, RecvError> {
        block_until(
            &self.shared.slot,
            &self.shared.blocked,
            Duration::ZERO,
            |slot| !matches!(slot, Slot::Empty),
        );
        self.try_recv()
            .expect("oneshot value already taken by try_recv")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv() {
        let (tx, rx) = oneshot();
        std::thread::spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv(), Ok(42));
    }

    #[test]
    fn sender_drop_is_recv_error() {
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn receiver_drop_is_send_error() {
        let (tx, rx) = oneshot::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn try_recv_polls() {
        let (tx, rx) = oneshot();
        assert!(rx.try_recv().is_none());
        tx.send("x").unwrap();
        assert_eq!(rx.try_recv(), Some(Ok("x")));
    }
}
