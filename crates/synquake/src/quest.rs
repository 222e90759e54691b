//! Quests: the hotspot patterns that drive player movement.
//!
//! A *quest* in SynQuake is "a specific area in the map that attracts
//! players, thus simulating a high interest area in the game play and the
//! associated player movement patterns" (§VIII). The paper trains on
//! `4worst_case` and `4moving` and tests on `4quadrants` and
//! `4center_spread6`; all four place four hotspots on the 1024×1024 map.

use std::fmt;
use std::str::FromStr;

/// Map side length (the paper's 1024×1024 map).
pub(crate) const MAP_SIZE: i32 = 1024;

/// The four quest patterns from the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Quest {
    /// All four hotspots collapse near the map center — maximal player
    /// convergence, the worst case for contention (training quest).
    WorstCase4,
    /// Four hotspots orbit the map over time (training quest).
    Moving4,
    /// One hotspot at each quadrant center (test quest).
    Quadrants4,
    /// A center hotspot with players spread at six radii (test quest).
    CenterSpread6,
}

impl Quest {
    /// The quests used for model training in the paper.
    pub fn training() -> [Quest; 2] {
        [Quest::WorstCase4, Quest::Moving4]
    }

    /// The quests used for testing in the paper.
    pub fn testing() -> [Quest; 2] {
        [Quest::Quadrants4, Quest::CenterSpread6]
    }

    /// Position of hotspot `k` (of 4) at `frame`.
    pub(crate) fn hotspot(self, k: usize, frame: u64) -> (i32, i32) {
        let c = MAP_SIZE / 2;
        let k = (k % 4) as i32;
        match self {
            Quest::WorstCase4 => {
                // Tight cluster around the center: 4 points 32px apart.
                let dx = (k % 2) * 32 - 16;
                let dy = (k / 2) * 32 - 16;
                (c + dx, c + dy)
            }
            Quest::Moving4 => {
                // Hotspots march along the diagonals, wrapping.
                let t = (frame as i32 * 8) % MAP_SIZE;
                match k {
                    0 => (t, t),
                    1 => (MAP_SIZE - 1 - t, t),
                    2 => (t, MAP_SIZE - 1 - t),
                    _ => (MAP_SIZE - 1 - t, MAP_SIZE - 1 - t),
                }
            }
            Quest::Quadrants4 => {
                let q = MAP_SIZE / 4;
                ((1 + 2 * (k % 2)) * q, (1 + 2 * (k / 2)) * q)
            }
            Quest::CenterSpread6 => {
                // One central attractor; the "spread 6" offsets targets on
                // six rings so players distribute around the center.
                let ring = (k + 1) * MAP_SIZE / 16;
                let (sx, sy) = match k {
                    0 => (1, 0),
                    1 => (0, 1),
                    2 => (-1, 0),
                    _ => (0, -1),
                };
                (c + sx * ring, c + sy * ring)
            }
        }
    }
}

impl fmt::Display for Quest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Quest::WorstCase4 => "4worst_case",
            Quest::Moving4 => "4moving",
            Quest::Quadrants4 => "4quadrants",
            Quest::CenterSpread6 => "4center_spread6",
        };
        f.write_str(s)
    }
}

impl FromStr for Quest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "4worst_case" => Ok(Quest::WorstCase4),
            "4moving" => Ok(Quest::Moving4),
            "4quadrants" => Ok(Quest::Quadrants4),
            "4center_spread6" => Ok(Quest::CenterSpread6),
            other => Err(format!("unknown quest {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Quest; 4] =
        [Quest::WorstCase4, Quest::Moving4, Quest::Quadrants4, Quest::CenterSpread6];

    #[test]
    fn hotspots_are_in_bounds() {
        for quest in ALL {
            for k in 0..4 {
                for frame in [0, 7, 100, 9999] {
                    let (x, y) = quest.hotspot(k, frame);
                    assert!((0..MAP_SIZE).contains(&x), "{quest} k={k} f={frame}: x={x}");
                    assert!((0..MAP_SIZE).contains(&y), "{quest} k={k} f={frame}: y={y}");
                }
            }
        }
    }

    #[test]
    fn worst_case_hotspots_converge() {
        let c = MAP_SIZE / 2;
        for k in 0..4 {
            let (x, y) = Quest::WorstCase4.hotspot(k, 5);
            assert!((x - c).abs() <= 32 && (y - c).abs() <= 32);
        }
    }

    #[test]
    fn quadrants_are_distinct_and_spread() {
        let spots: std::collections::HashSet<(i32, i32)> =
            (0..4).map(|k| Quest::Quadrants4.hotspot(k, 0)).collect();
        assert_eq!(spots.len(), 4);
    }

    #[test]
    fn moving_quest_moves() {
        assert_ne!(Quest::Moving4.hotspot(0, 0), Quest::Moving4.hotspot(0, 10));
    }

    #[test]
    fn parse_round_trip() {
        for q in ALL {
            assert_eq!(q.to_string().parse::<Quest>().unwrap(), q);
        }
        assert!("8corners".parse::<Quest>().is_err());
    }
}
