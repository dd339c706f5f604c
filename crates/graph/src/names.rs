//! Node names: every name of a netlist in one string, and the keyed
//! slot table the parser resolves names through.
//!
//! A netlist of 10⁵ relay stations holds 10⁵ names. One `String` per
//! node costs an allocation, a free and 24 bytes of header each; the
//! [`NameArena`] stores them end to end with one `u32` offset per node.
//! The [`NameTable`] maps a name to its node without a copy of the key:
//! its slots hold node ids, and a match is confirmed against the arena.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::netlist::NodeId;

/// Every node's name end to end: node `i`'s name is
/// `text[ends[i - 1]..ends[i]]`, from offset 0 for node 0.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameArena {
    text: String,
    ends: Vec<u32>,
}

impl NameArena {
    /// An empty arena with room for `names` names of `bytes` bytes in
    /// all.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        NameArena {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
        }
    }

    /// Append the next node's name.
    pub(crate) fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.close();
    }

    /// Append the next node's name as `name` displays.
    pub(crate) fn push_display(&mut self, name: impl fmt::Display) {
        use fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{name}");
        self.close();
    }

    /// End the name written since the last one.
    fn close(&mut self) {
        self.ends
            .push(u32::try_from(self.text.len()).expect("node names exceed 4 GiB"));
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Node `i`'s name.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// One slot of a [`NameTable`]: a node id, and 32 more bits of its
/// name's hash so most mismatches never read the arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    node: u32,
}

/// A vacant slot's `node`: no node id reaches it, since node counts
/// stay below `u32::MAX`.
const VACANT: u32 = u32::MAX;

/// Name → node, open-addressed over a [`NameArena`]: linear probing in
/// a power-of-two array of slots, at most 7/8 full.
///
/// Hashed with std's keyed [`RandomState`] on purpose: the names come
/// from the file, and a fixed hash would let a crafted file put every
/// name in one probe run. The table is sized once from the parser's
/// estimate, and doubles (rehashing from the arena) only when a text
/// declares more names than that.
///
/// Callers hash a batch of names before probing for any of them, so the
/// table's cache misses overlap rather than queue behind each hash.
#[derive(Debug)]
pub(crate) struct NameTable {
    slots: Vec<Slot>,
    /// Nodes `0..named` are in the table.
    named: usize,
    keys: RandomState,
}

impl NameTable {
    /// An empty table that holds `names` names without growing.
    pub(crate) fn with_capacity(names: usize) -> Self {
        NameTable {
            slots: Self::vacant(Self::slots_for(names)),
            named: 0,
            keys: RandomState::new(),
        }
    }

    /// `count` vacant slots.
    fn vacant(count: usize) -> Vec<Slot> {
        vec![
            Slot {
                tag: 0,
                node: VACANT
            };
            count
        ]
    }

    /// The power-of-two slot count that holds `names` within the load
    /// bound.
    fn slots_for(names: usize) -> usize {
        (names + names / 7 + 1).next_power_of_two()
    }

    /// Nodes `0..named()` are in the table.
    pub(crate) fn named(&self) -> usize {
        self.named
    }

    /// `name`'s hash under this table's keys.
    pub(crate) fn hash(&self, name: &str) -> u64 {
        self.keys.hash_one(name)
    }

    /// The node named `name`, whose hash is `hash`, if it is in the
    /// table.
    pub(crate) fn find(&self, arena: &NameArena, name: &str, hash: u64) -> Option<NodeId> {
        self.probe(arena, name, hash).ok()
    }

    /// Add the names of nodes `named()..arena.len()`, in node order,
    /// hashing them all into `hashes` first. Stops at the first node
    /// whose name is taken, by an earlier node, and returns it.
    pub(crate) fn insert_rest(
        &mut self,
        arena: &NameArena,
        hashes: &mut Vec<u64>,
    ) -> Option<NodeId> {
        let end = arena.len();
        while end * 8 > self.slots.len() * 7 {
            self.grow(arena);
        }
        hashes.clear();
        hashes.extend((self.named..end).map(|i| self.hash(arena.get(i))));
        for (i, &hash) in (self.named..end).zip(hashes.iter()) {
            let Err(slot) = self.probe(arena, arena.get(i), hash) else {
                return Some(node_id(i));
            };
            self.slots[slot] = Slot {
                tag: (hash >> 32) as u32,
                node: node_id(i).0,
            };
            self.named = i + 1;
        }
        None
    }

    /// The node named `name`, or the vacant slot ending its probe run.
    fn probe(&self, arena: &NameArena, name: &str, hash: u64) -> Result<NodeId, usize> {
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.node == VACANT {
                return Err(i);
            }
            if slot.tag == tag && arena.get(slot.node as usize) == name {
                return Ok(NodeId(slot.node));
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slots and re-place every name from the arena.
    fn grow(&mut self, arena: &NameArena) {
        let doubled = Self::vacant(2 * self.slots.len());
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.node != VACANT) {
            let mut i = self.hash(arena.get(slot.node as usize)) as usize & mask;
            while self.slots[i].node != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Node `i`'s id: the netlist keeps node counts below `u32::MAX`.
fn node_id(i: usize) -> NodeId {
    NodeId(u32::try_from(i).expect("node ids fit u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Declare `names` in batches of the given sizes into an arena and a
    /// table sized for `estimate`, as the parser does; returns them and
    /// the first name found taken.
    fn declare_all(
        names: &[String],
        batches: &[usize],
        estimate: usize,
    ) -> (NameArena, NameTable, Option<usize>) {
        let mut arena = NameArena::default();
        let mut table = NameTable::with_capacity(estimate);
        let mut hashes = Vec::new();
        let mut rest = names;
        for &batch in batches.iter().chain(std::iter::once(&usize::MAX)) {
            let (now, later) = rest.split_at(batch.min(rest.len()));
            for name in now {
                arena.push(name);
            }
            if let Some(taken) = table.insert_rest(&arena, &mut hashes) {
                return (arena, table, Some(taken.index()));
            }
            rest = later;
        }
        (arena, table, None)
    }

    /// The first name declared twice, and the node each name resolves
    /// to up to it, from std's map.
    fn oracle(names: &[String]) -> (HashMap<&str, u32>, Option<usize>) {
        let mut map = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            if map.contains_key(name.as_str()) {
                return (map, Some(i));
            }
            map.insert(name.as_str(), u32::try_from(i).unwrap());
        }
        (map, None)
    }

    /// A name from a small alphabet, so sets repeat names, with
    /// multi-byte characters and `connect` among its pieces.
    fn name(pieces: &[u8]) -> String {
        const ALPHABET: [&str; 8] = ["a", "b", "_", "7", "é", "雪", "connect", "🦀"];
        pieces
            .iter()
            .map(|&p| ALPHABET[usize::from(p) % ALPHABET.len()])
            .collect()
    }

    proptest! {
        #[test]
        fn table_agrees_with_a_hash_map(
            raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..4), 0..200),
            batches in proptest::collection::vec(0usize..40, 0..8),
            estimate in 0usize..64,
        ) {
            let names: Vec<String> = raw.iter().map(|p| name(p)).collect();
            let (arena, table, taken) = declare_all(&names, &batches, estimate);
            let (map, first_twice) = oracle(&names);
            prop_assert_eq!(taken, first_twice);
            prop_assert_eq!(table.named(), map.len());
            for (name, &id) in &map {
                let found = table.find(&arena, name, table.hash(name));
                prop_assert_eq!(found, Some(NodeId(id)));
                prop_assert_eq!(arena.get(id as usize), *name);
            }
            let absent = "absent name";
            prop_assert_eq!(table.find(&arena, absent, table.hash(absent)), None);
        }
    }

    #[test]
    fn an_underestimate_grows_the_table() {
        let names: Vec<String> = (0..5_000).map(|i| format!("n{i}")).collect();
        let (arena, table, taken) = declare_all(&names, &[1, 10, 100, 1_000], 1);
        assert_eq!(taken, None);
        assert!(table.slots.len() >= 5_000 * 8 / 7);
        for (i, name) in names.iter().enumerate() {
            let found = table.find(&arena, name, table.hash(name));
            assert_eq!(found, Some(node_id(i)));
        }
    }

    #[test]
    fn the_empty_name_is_a_name() {
        let names = vec![String::new(), "x".to_owned(), String::new()];
        let (arena, _, taken) = declare_all(&names, &[], 0);
        assert_eq!(taken, Some(2));
        assert_eq!(arena.get(0), "");
        assert_eq!(arena.get(1), "x");
    }
}
