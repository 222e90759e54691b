//! Admission policies: the hook guided execution plugs into.
//!
//! The paper's guided STM intervenes at exactly one point: **transaction
//! begin** (`TM_BEGIN(ID)`). If the `(thread, transaction)` pair is not part
//! of any high-probability destination state of the automaton's current
//! state, the thread is *held* — it polls, re-reading the (possibly changed)
//! current state, up to `k` times, and is then released unconditionally to
//! guarantee progress (§V).
//!
//! [`AdmissionPolicy`] abstracts that decision. The engine hands the policy a
//! `poll` callback that charges gate time and yields; the policy calls it as
//! many times as it wants to wait. `gstm-guide` provides the model-driven
//! implementation; [`AdmitAll`] is the default (the paper's "default STM").

use crate::ids::Participant;

/// Decides whether a transaction invocation may begin now.
pub trait AdmissionPolicy: Send + Sync {
    /// Called once per invocation (not per retry attempt) before the first
    /// attempt begins. May call `poll()` repeatedly to wait; each call
    /// charges hold time to the thread and yields to other threads.
    ///
    /// Returns the number of polls spent (0 = admitted immediately); the
    /// engine emits a [`crate::events::TxEvent::Held`] event when non-zero.
    fn admit(&self, who: Participant, poll: &mut dyn FnMut()) -> u32;
}

/// Admits every transaction immediately — the unguided baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit(&self, _who: Participant, _poll: &mut dyn FnMut()) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxId};

    #[test]
    fn admit_all_never_polls() {
        let mut polls = 0u32;
        let got =
            AdmitAll.admit(Participant::new(ThreadId::new(0), TxId::new(0)), &mut || polls += 1);
        assert_eq!(got, 0);
        assert_eq!(polls, 0);
    }
}
