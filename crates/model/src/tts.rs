//! Thread transactional states (TTS) and their interning.

use std::collections::HashMap;
use std::fmt;

use gstm_core::Participant;

/// A **thread transactional state** (§II-B): the outcome of one simultaneous
/// transaction race — the set of `(thread, tx)` participants that aborted,
/// plus the `(thread, tx)` that committed.
///
/// The paper writes the kmeans example `{<a6>, <b7>}` for "thread 6's
/// transaction `a` aborted; thread 7 committed transaction `b`", and
/// `{<b0>}` for an uncontended commit. [`fmt::Display`] follows that
/// notation:
///
/// ```
/// use gstm_core::{Participant, ThreadId, TxId};
/// use gstm_model::Tts;
/// let s = Tts::new(
///     vec![Participant::new(ThreadId::new(6), TxId::new(0))],
///     Participant::new(ThreadId::new(7), TxId::new(1)),
/// );
/// assert_eq!(s.to_string(), "{<a6>,<b7>}");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tts {
    /// Participants aborted in this state, sorted and deduplicated.
    aborted: Vec<Participant>,
    /// The participant that committed.
    committer: Participant,
}

impl Tts {
    /// Creates a state; `aborted` is canonicalized (sorted, deduped).
    pub fn new(mut aborted: Vec<Participant>, committer: Participant) -> Self {
        aborted.sort_unstable();
        aborted.dedup();
        Tts { aborted, committer }
    }

    /// A contention-free commit: `{<c3>}`-style singleton state.
    pub fn solo(committer: Participant) -> Self {
        Tts { aborted: Vec::new(), committer }
    }

    /// The committing participant.
    pub(crate) fn committer(&self) -> Participant {
        self.committer
    }

    /// The aborted participants (sorted).
    pub fn aborted(&self) -> &[Participant] {
        &self.aborted
    }

    /// Whether `p` appears anywhere in this tuple (as committer or abortee).
    /// Guided execution's admission test is built from this (§V).
    pub fn contains(&self, p: Participant) -> bool {
        self.committer == p || self.aborted.binary_search(&p).is_ok()
    }

    /// Every participant in the tuple: the abortees followed by the
    /// committer.
    pub fn participants(&self) -> impl Iterator<Item = Participant> + '_ {
        self.aborted.iter().copied().chain(std::iter::once(self.committer))
    }
}

impl fmt::Display for Tts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        if !self.aborted.is_empty() {
            write!(f, "<")?;
            for (i, p) in self.aborted.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ">,")?;
        }
        write!(f, "<{}>}}", self.committer)
    }
}

/// Dense id of an interned [`Tts`] within a [`StateSpace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Interning table mapping states to dense [`StateId`]s.
///
/// The number of interned states **is** the paper's non-determinism measure
/// `|S|` — "the total number of distinct thread transactional states
/// exercised by the execution".
#[derive(Clone, Debug, Default)]
pub struct StateSpace {
    by_state: HashMap<Tts, StateId>,
    states: Vec<Tts>,
}

impl StateSpace {
    /// An empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a state, returning its id (existing or fresh). The state is
    /// cloned only when it is new.
    pub fn intern(&mut self, tts: &Tts) -> StateId {
        if let Some(&id) = self.by_state.get(tts) {
            return id;
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(tts.clone());
        self.by_state.insert(tts.clone(), id);
        id
    }

    /// Looks a state up without interning.
    pub fn lookup(&self, tts: &Tts) -> Option<StateId> {
        self.by_state.get(tts).copied()
    }

    /// The state for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this space.
    pub fn state(&self, id: StateId) -> &Tts {
        &self.states[id.0 as usize]
    }

    /// Number of distinct states — the non-determinism measure `|S|`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterates `(id, state)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &Tts)> {
        self.states.iter().enumerate().map(|(i, s)| (StateId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{ThreadId, TxId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    #[test]
    fn canonicalizes_aborted_list() {
        let a = Tts::new(vec![p(3, 0), p(1, 0), p(3, 0)], p(7, 1));
        assert_eq!(a.aborted(), &[p(1, 0), p(3, 0)]);
    }

    #[test]
    fn equal_states_compare_equal_regardless_of_input_order() {
        let a = Tts::new(vec![p(1, 0), p(2, 1)], p(7, 1));
        let b = Tts::new(vec![p(2, 1), p(1, 0)], p(7, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Tts::solo(p(3, 2)).to_string(), "{<c3>}");
        let s = Tts::new(vec![p(1, 0), p(2, 2), p(5, 4)], p(3, 2));
        assert_eq!(s.to_string(), "{<a1 c2 e5>,<c3>}");
    }

    #[test]
    fn contains_checks_both_roles() {
        let s = Tts::new(vec![p(1, 0)], p(7, 1));
        assert!(s.contains(p(1, 0)));
        assert!(s.contains(p(7, 1)));
        assert!(!s.contains(p(1, 1)));
        assert!(!s.contains(p(7, 0)));
    }

    #[test]
    fn participants_iterates_all() {
        let s = Tts::new(vec![p(1, 0), p(2, 0)], p(3, 1));
        let all: Vec<_> = s.participants().collect();
        assert_eq!(all, vec![p(1, 0), p(2, 0), p(3, 1)]);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut sp = StateSpace::new();
        let id1 = sp.intern(&Tts::solo(p(0, 0)));
        let id2 = sp.intern(&Tts::solo(p(0, 0)));
        let id3 = sp.intern(&Tts::solo(p(1, 0)));
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.lookup(&Tts::solo(p(1, 0))), Some(id3));
        assert_eq!(sp.lookup(&Tts::solo(p(9, 0))), None);
        assert_eq!(sp.state(id1), &Tts::solo(p(0, 0)));
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut sp = StateSpace::new();
        sp.intern(&Tts::solo(p(0, 0)));
        sp.intern(&Tts::solo(p(1, 0)));
        let ids: Vec<u32> = sp.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
