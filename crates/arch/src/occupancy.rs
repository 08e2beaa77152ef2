//! The MRRG's one occupancy rule, counted for `Mapping::verify` (route
//! hops at their visit times) and the cycle machine (port tokens at their
//! loop iterations) alike.

use crate::{Mrrg, MrrgNodeId};

/// `(node, producer, time)` claims, counted against [`Mrrg::capacity`]: a
/// node holds at most `capacity` distinct values, a value being one
/// producer's output at one time. Fan-out edges crossing a node in the
/// same cycle broadcast one value; one producer crossing it at two times
/// puts two iterations' values there at once.
#[derive(Debug, Clone, Default)]
pub struct Ledger(Vec<(MrrgNodeId, usize, i64)>);

impl Ledger {
    /// Records that `node` holds `producer`'s value of `time`.
    pub fn claim(&mut self, node: MrrgNodeId, producer: usize, time: i64) {
        self.0.push((node, producer, time));
    }

    /// The lowest-numbered node holding more distinct values than its
    /// capacity, with that count; then forgets every claim. An
    /// uncapacitated node (`u16::MAX`) never overflows.
    pub fn overflow(&mut self, mrrg: &Mrrg) -> Option<(MrrgNodeId, usize)> {
        self.0.sort_unstable();
        self.0.dedup();
        let over = (self.0.chunk_by(|a, b| a.0 == b.0))
            .map(|values| (values[0].0, values.len()))
            .find(|&(node, used)| {
                let cap = mrrg.capacity(node);
                cap != u16::MAX && used > usize::from(cap)
            });
        self.0.clear();
        over
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cgra, CgraConfig};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The count the verifier kept before the ledger: a set of distinct
    /// `(producer, time)` values per capacitated node.
    fn reference(mrrg: &Mrrg, claims: &[(MrrgNodeId, usize, i64)]) -> Option<(MrrgNodeId, usize)> {
        let mut usage: HashMap<MrrgNodeId, HashSet<(usize, i64)>> = HashMap::new();
        for &(node, producer, time) in claims {
            if mrrg.capacity(node) != u16::MAX {
                usage.entry(node).or_default().insert((producer, time));
            }
        }
        (usage.into_iter())
            .filter(|(node, values)| values.len() > usize::from(mrrg.capacity(*node)))
            .map(|(node, values)| (node, values.len()))
            .min()
    }

    proptest! {
        /// Random claims on nodes of capacity 1 (FU, register), 2 (register
        /// ports on the 6×1 array) and `u16::MAX` (output), from few
        /// producers at few times so values repeat and broadcasts share,
        /// checked against the set-per-node count at random settle points.
        #[test]
        fn overflow_matches_the_set_per_node_count(
            steps in proptest::collection::vec(0u64..u64::MAX, 1..200),
        ) {
            let cgra = Cgra::new(CgraConfig::linear_6x1()).unwrap();
            let mrrg = cgra.mrrg(2);
            let pes = [cgra.pe_at(0, 0), cgra.pe_at(0, 1)];
            let nodes: Vec<MrrgNodeId> = pes
                .iter()
                .flat_map(|&pe| (0..2).map(move |t| (pe, t)))
                .flat_map(|(pe, t)| {
                    [mrrg.fu(pe, t), mrrg.reg(pe, 0, t), mrrg.reg_write(pe, t), mrrg.reg_read(pe, t), mrrg.out(pe, t)]
                })
                .collect();
            let caps: HashSet<u16> = nodes.iter().map(|&n| mrrg.capacity(n)).collect();
            prop_assert_eq!(caps, HashSet::from([1, 2, u16::MAX]));
            let mut ledger = Ledger::default();
            let mut claims = Vec::new();
            for step in steps {
                if step % 16 == 0 {
                    prop_assert_eq!(ledger.overflow(&mrrg), reference(&mrrg, &claims));
                    claims.clear();
                    continue;
                }
                let node = nodes[(step >> 8) as usize % nodes.len()];
                let (producer, time) = ((step >> 16) as usize % 3, (step >> 24) as i64 % 3);
                ledger.claim(node, producer, time);
                claims.push((node, producer, time));
            }
            prop_assert_eq!(ledger.overflow(&mrrg), reference(&mrrg, &claims));
            prop_assert_eq!(ledger.overflow(&mrrg), None);
        }
    }

    #[test]
    fn a_broadcast_is_one_value_and_two_times_are_two() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mrrg = cgra.mrrg(2);
        let link = mrrg.link_node(0, 0);
        let mut ledger = Ledger::default();
        ledger.claim(link, 3, 5);
        ledger.claim(link, 3, 5);
        assert_eq!(ledger.overflow(&mrrg), None);
        ledger.claim(link, 3, 5);
        ledger.claim(link, 3, 7);
        assert_eq!(ledger.overflow(&mrrg), Some((link, 2)));
        assert_eq!(ledger.overflow(&mrrg), None, "overflow forgets the claims");
    }
}
