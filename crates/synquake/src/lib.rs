//! # gstm-synquake — a reconstruction of SynQuake on the GSTM stack
//!
//! SynQuake (Lupei et al., PPoPP '10) is a 2-D re-implementation of the
//! Quake 3 multiplayer game server over the LibTM software transactional
//! memory; the paper uses it as its real-world case study (§VIII). Neither
//! SynQuake nor LibTM is publicly distributable (the paper's artifact
//! appendix says so explicitly), so this crate rebuilds the system from the
//! paper's description:
//!
//! * a 1024×1024 map with a cell-granular spatial index and
//!   object-granularity transactions (`World`);
//! * 1000 players attracted by quest hotspots ([`Quest`]) — training on
//!   `4worst_case` + `4moving`, testing on `4quadrants` +
//!   `4center_spread6`;
//! * a frame-barriered server loop whose per-frame processing times are the
//!   series Figures 11–12 analyze ([`SynQuake`]);
//! * LibTM's fully-optimistic detection with abort-readers resolution
//!   (`StmConfig::libtm`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod game;
mod quest;
mod world;

pub use game::{stat, SynQuake};
pub use quest::Quest;
