//! A persistent hash map: cloning shares, writing copies a path.
//!
//! [`PMap`] is a hash trie whose nodes sit behind [`Arc`]s. A clone copies
//! the root pointer, so two clones share every node; a write walks from
//! the root to one leaf and, through [`Arc::make_mut`], copies only the
//! nodes on that path which another clone still holds — at most one node
//! of [`FANOUT`] pointers per level and one leaf of about [`LEAF_MAX`]
//! entries, O(log n) in all. A map nobody else holds is changed in place.
//!
//! This is what lets the broker publish an immutable view of its
//! subscription index after every write without the write costing
//! O(subscriptions): the view is a clone, and the next write copies only
//! what it changes. Values are cloned whenever their leaf is copied, so a
//! value that is large, or that changes on its own, belongs behind an
//! `Arc` of its own.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Arc;

/// Hash bits consumed per trie level.
const BITS: u32 = 4;
/// Children per branch node.
const FANOUT: usize = 1 << BITS;
/// Entries a leaf holds before it splits into a branch. Leaves at the
/// last level, where the hash has no bits left, grow without bound.
const LEAF_MAX: usize = 8;

#[derive(Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

#[derive(Clone)]
enum Node<K, V> {
    Leaf(Vec<Entry<K, V>>),
    Branch(Box<[Link<K, V>; FANOUT]>),
}

fn child_of(hash: u64, shift: u32) -> usize {
    ((hash >> shift) as usize) & (FANOUT - 1)
}

/// A hash map with structural sharing between clones; see the module
/// notes. Keys are hashed with a per-map random state (kept by clones),
/// as `std`'s `HashMap` does, because subscription ids and attribute
/// values arrive from outside the process.
#[derive(Clone)]
pub(crate) struct PMap<K, V> {
    root: Link<K, V>,
    len: usize,
    hasher: RandomState,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            root: None,
            len: 0,
            hasher: RandomState::new(),
        }
    }
}

impl<K, V> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PMap").field("len", &self.len).finish()
    }
}

impl<K, V> PMap<K, V> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hash this map files `probe` under. With [`PMap::get_with`],
    /// this looks a key up by anything that hashes like it.
    pub(crate) fn hash_of<Q: Hash + ?Sized>(&self, probe: &Q) -> u64 {
        self.hasher.hash_one(probe)
    }

    /// The value whose key has hash `hash` and satisfies `is_key`.
    pub(crate) fn get_with(&self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<&V> {
        let mut node = self.root.as_ref()?;
        let mut shift = 0;
        loop {
            match &**node {
                Node::Leaf(entries) => {
                    return entries
                        .iter()
                        .find(|e| e.hash == hash && is_key(&e.key))
                        .map(|e| &e.value);
                }
                Node::Branch(children) => {
                    node = children[child_of(hash, shift)].as_ref()?;
                    shift += BITS;
                }
            }
        }
    }

    /// The value stored under `key`.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_with(self.hash_of(key), |k| k.borrow() == key)
    }
}

impl<K: Clone + Hash + Eq, V: Clone> PMap<K, V> {
    /// Mutable access to the value stored under `key`, copying the path
    /// to it if a clone shares it.
    pub(crate) fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        let mut node = self.root.as_mut()?;
        let mut shift = 0;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    return entries
                        .iter_mut()
                        .find(|e| e.hash == hash && e.key.borrow() == key)
                        .map(|e| &mut e.value);
                }
                Node::Branch(children) => {
                    node = children[child_of(hash, shift)].as_mut()?;
                    shift += BITS;
                }
            }
        }
    }

    /// Store `value` under `key`; returns the value it replaces.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = self.hash_of(&key);
        let replaced = insert_into(&mut self.root, 0, Entry { hash, key, value });
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    /// Remove `key`; returns its value. Nodes left empty are unlinked.
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        let removed = remove_from(&mut self.root, 0, hash, key)?;
        self.len -= 1;
        Some(removed)
    }
}

fn insert_into<K: Clone + Eq, V: Clone>(
    link: &mut Link<K, V>,
    shift: u32,
    entry: Entry<K, V>,
) -> Option<V> {
    let Some(node) = link else {
        *link = Some(Arc::new(Node::Leaf(vec![entry])));
        return None;
    };
    let entries = match Arc::make_mut(node) {
        Node::Branch(children) => {
            let child = &mut children[child_of(entry.hash, shift)];
            return insert_into(child, shift + BITS, entry);
        }
        Node::Leaf(entries) => entries,
    };
    if let Some(found) = entries
        .iter_mut()
        .find(|e| e.hash == entry.hash && e.key == entry.key)
    {
        return Some(std::mem::replace(&mut found.value, entry.value));
    }
    entries.push(entry);
    if entries.len() > LEAF_MAX && shift < u64::BITS {
        let mut children: [Link<K, V>; FANOUT] = std::array::from_fn(|_| None);
        for e in std::mem::take(entries) {
            insert_into(&mut children[child_of(e.hash, shift)], shift + BITS, e);
        }
        *link = Some(Arc::new(Node::Branch(Box::new(children))));
    }
    None
}

fn remove_from<K, V, Q>(link: &mut Link<K, V>, shift: u32, hash: u64, key: &Q) -> Option<V>
where
    K: Clone + Borrow<Q>,
    V: Clone,
    Q: Eq + ?Sized,
{
    let (removed, emptied) = match Arc::make_mut(link.as_mut()?) {
        Node::Leaf(entries) => {
            let at = entries
                .iter()
                .position(|e| e.hash == hash && e.key.borrow() == key)?;
            (entries.swap_remove(at).value, entries.is_empty())
        }
        Node::Branch(children) => {
            let child = &mut children[child_of(hash, shift)];
            let removed = remove_from(child, shift + BITS, hash, key)?;
            (removed, children.iter().all(Option::is_none))
        }
    };
    if emptied {
        *link = None;
    }
    Some(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Every key collides: the trie degenerates to one chain of branches
    /// ending in an unbounded leaf.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u8(7);
        }
    }

    #[test]
    fn insert_get_replace_remove() {
        let mut map: PMap<String, u32> = PMap::default();
        assert!(map.is_empty());
        assert_eq!(map.insert("a".to_owned(), 1), None);
        assert_eq!(map.insert("b".to_owned(), 2), None);
        assert_eq!(map.insert("a".to_owned(), 3), Some(1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("a"), Some(&3));
        assert_eq!(map.get("c"), None);
        *map.get_mut("b").unwrap() += 10;
        assert_eq!(map.get("b"), Some(&12));
        assert!(map.get_mut("c").is_none());
        assert_eq!(map.remove("a"), Some(3));
        assert_eq!(map.remove("a"), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn agrees_with_a_hash_map_across_splits_and_prunes() {
        let mut map: PMap<u64, u64> = PMap::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x: u64 = 7;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for round in 0..20_000u64 {
            let key = next() % 3_000;
            if next() % 3 == 0 {
                assert_eq!(map.remove(&key), model.remove(&key));
            } else {
                assert_eq!(map.insert(key, round), model.insert(key, round));
            }
            assert_eq!(map.len(), model.len());
        }
        for key in 0..3_000 {
            assert_eq!(map.get(&key), model.get(&key));
        }
        for key in 0..3_000 {
            assert_eq!(map.remove(&key), model.remove(&key));
        }
        assert!(map.is_empty());
        assert!(map.root.is_none(), "emptied nodes are unlinked");
    }

    #[test]
    fn a_clone_keeps_its_contents_while_the_original_changes() {
        let mut map: PMap<u32, Vec<u32>> = PMap::default();
        for key in 0..1_000 {
            map.insert(key, vec![key]);
        }
        let frozen = map.clone();
        for key in 0..1_000 {
            match key % 3 {
                0 => {
                    map.remove(&key);
                }
                1 => map.get_mut(&key).unwrap().push(0),
                _ => {
                    map.insert(key + 1_000, vec![]);
                }
            }
        }
        assert_eq!(frozen.len(), 1_000);
        for key in 0..1_000 {
            assert_eq!(frozen.get(&key), Some(&vec![key]));
            assert_eq!(frozen.get(&(key + 1_000)), None);
        }
    }

    #[test]
    fn a_write_copies_one_path_and_shares_the_rest() {
        let mut map: PMap<u32, u32> = PMap::default();
        for key in 0..10_000 {
            map.insert(key, key);
        }
        let frozen = map.clone();
        map.insert(3, 0);
        let (Some(Node::Branch(ours)), Some(Node::Branch(theirs))) =
            (map.root.as_deref(), frozen.root.as_deref())
        else {
            panic!("10 000 entries do not fit one leaf");
        };
        let shared = ours
            .iter()
            .zip(theirs.iter())
            .filter(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count();
        assert_eq!(shared, FANOUT - 1, "one subtree copied, the others shared");
    }

    #[test]
    fn full_collisions_are_kept_apart_by_key() {
        let mut map: PMap<Colliding, u32> = PMap::default();
        for key in 0..100 {
            map.insert(Colliding(key), key);
        }
        assert_eq!(map.len(), 100);
        for key in 0..100 {
            assert_eq!(map.get(&Colliding(key)), Some(&key));
        }
        for key in 0..100 {
            assert_eq!(map.remove(&Colliding(key)), Some(key));
        }
        assert!(map.root.is_none());
    }

    #[test]
    fn lookup_by_a_probe_that_hashes_like_the_key() {
        let mut map: PMap<String, u32> = PMap::default();
        map.insert("nyse".to_owned(), 1);
        let probe: &str = "nyse";
        assert_eq!(map.get_with(map.hash_of(probe), |k| k == probe), Some(&1));
        assert_eq!(map.get_with(map.hash_of("arca"), |k| k == "arca"), None);
    }
}
