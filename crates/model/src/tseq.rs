//! Parsing a transaction sequence (`Tseq`) into a state sequence.
//!
//! The paper's profiler logs every commit "and the corresponding aborts, if
//! any" (Algorithm 1, line 2–3); the parser groups them into TTS tuples. In
//! TL2 a victim discovers its conflict *after* the culprit commits, so the
//! raw log interleaves a commit with the aborts it caused. The grouping
//! rule is arrival order: an abort joins the tuple of the **next** commit
//! in the log. This rule is *online-computable* (a tuple closes the moment
//! its commit arrives), so it is the rule guided execution's
//! [`crate::StateTracker`] uses, and therefore the rule models intended for
//! guidance must be built with.

use gstm_core::{Participant, TxEvent};

use crate::tts::Tts;

/// Parses an event log into the sequence of thread transactional states.
///
/// `Begin` and `Held` events are ignored; the state sequence has exactly one
/// entry per `Commit` event, in commit order, and each abort belongs to the
/// next commit after it.
pub fn parse_states(events: &[TxEvent]) -> Vec<Tts> {
    let mut out = Vec::new();
    let mut pending: Vec<Participant> = Vec::new();
    for ev in events {
        match ev {
            TxEvent::Abort { who, .. } => pending.push(*who),
            TxEvent::Commit { who, .. } => {
                out.push(Tts::new(std::mem::take(&mut pending), *who));
            }
            // Begin/Held and oracle instrumentation events form no tuple.
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Abort, AbortReason, CommitSeq, ThreadId, TxId, VarId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn commit(t: u16, x: u16, seq: u64) -> TxEvent {
        TxEvent::Commit {
            who: p(t, x),
            seq: CommitSeq::new(seq),
            aborts: 0,
            reads: 0,
            writes: 0,
            at: 0,
        }
    }

    fn abort(t: u16, x: u16) -> TxEvent {
        let abort = Abort::new(AbortReason::ReadVersion { var: VarId::from_raw(1) });
        TxEvent::Abort { who: p(t, x), attempt: 0, abort, at: 0 }
    }

    #[test]
    fn arrival_groups_with_next_commit() {
        let evs = vec![
            abort(6, 0),
            commit(7, 1, 1),
            commit(0, 1, 2),
            abort(2, 0),
            abort(3, 0),
            commit(4, 0, 3),
        ];
        let states = parse_states(&evs);
        assert_eq!(states.len(), 3);
        assert_eq!(states[0], Tts::new(vec![p(6, 0)], p(7, 1)));
        assert_eq!(states[1], Tts::solo(p(0, 1)));
        assert_eq!(states[2], Tts::new(vec![p(2, 0), p(3, 0)], p(4, 0)));
    }

    #[test]
    fn trailing_aborts_without_commit_are_dropped() {
        let evs = vec![commit(7, 1, 1), abort(6, 0)];
        let states = parse_states(&evs);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0], Tts::solo(p(7, 1)));
    }

    #[test]
    fn empty_log_gives_empty_sequence() {
        assert!(parse_states(&[]).is_empty());
    }

    #[test]
    fn begin_and_held_are_ignored() {
        let evs = vec![
            TxEvent::Begin { who: p(0, 0), attempt: 0, at: 0 },
            TxEvent::Held { who: p(0, 0), polls: 3, at: 0 },
            commit(0, 0, 1),
        ];
        let states = parse_states(&evs);
        assert_eq!(states, vec![Tts::solo(p(0, 0))]);
    }
}
