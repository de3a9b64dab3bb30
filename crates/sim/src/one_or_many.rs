//! A list that keeps its only element inline.
//!
//! Most short lists on the request path — a plan phase, a read's pins, a
//! write's extents, a flush group — hold exactly one element. A `Vec`
//! pays a heap allocation for that one element; [`OneOrMany`] stores it
//! in place and moves to a `Vec` from the second element on. It derefs to
//! a slice, iterates like a `Vec`, compares by contents and prints as a
//! list, so code reading it cannot tell the two forms apart.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::{mem, option, slice, vec};

/// A list holding one element inline and any other count in a `Vec`.
///
/// The empty list is `Many` of an empty `Vec`, which allocates nothing,
/// and is the [`Default`]; [`OneOrMany::push`] onto it stores the element
/// inline. Equality is slice equality: `One(x)` equals `Many(vec![x])`.
#[derive(Clone)]
pub enum OneOrMany<T> {
    /// Exactly one element, stored in place.
    One(T),
    /// Any number of elements (an empty `Vec` holds no heap memory).
    Many(Vec<T>),
}

impl<T> OneOrMany<T> {
    /// The empty list; allocates nothing.
    pub const fn new() -> Self {
        OneOrMany::Many(Vec::new())
    }

    /// Appends `value`. Onto an empty list without capacity it is stored
    /// inline; a second element moves both into a `Vec`.
    pub fn push(&mut self, value: T) {
        *self = match mem::take(self) {
            OneOrMany::Many(v) if v.capacity() == 0 => OneOrMany::One(value),
            OneOrMany::Many(mut v) => {
                v.push(value);
                OneOrMany::Many(v)
            }
            OneOrMany::One(first) => OneOrMany::Many(vec![first, value]),
        };
    }

    /// Keeps only the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            OneOrMany::One(x) => {
                if !keep(x) {
                    *self = OneOrMany::new();
                }
            }
            OneOrMany::Many(v) => v.retain(keep),
        }
    }
}

impl<T> Default for OneOrMany<T> {
    fn default() -> Self {
        OneOrMany::new()
    }
}

impl<T> Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            OneOrMany::One(x) => slice::from_ref(x),
            OneOrMany::Many(v) => v,
        }
    }
}

impl<T> DerefMut for OneOrMany<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            OneOrMany::One(x) => slice::from_mut(x),
            OneOrMany::Many(v) => v,
        }
    }
}

impl<T> From<T> for OneOrMany<T> {
    fn from(value: T) -> Self {
        OneOrMany::One(value)
    }
}

impl<T> From<Vec<T>> for OneOrMany<T> {
    fn from(v: Vec<T>) -> Self {
        OneOrMany::Many(v)
    }
}

impl<T> Extend<T> for OneOrMany<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T> FromIterator<T> for OneOrMany<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = OneOrMany::new();
        out.extend(iter);
        out
    }
}

/// Owning iterator over a [`OneOrMany`], in order.
#[derive(Debug)]
pub struct IntoIter<T>(Inner<T>);

#[derive(Debug)]
enum Inner<T> {
    One(option::IntoIter<T>),
    Many(vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            Inner::One(it) => it.next(),
            Inner::Many(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Inner::One(it) => it.size_hint(),
            Inner::Many(it) => it.size_hint(),
        }
    }
}

impl<T> IntoIterator for OneOrMany<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(match self {
            OneOrMany::One(x) => Inner::One(Some(x).into_iter()),
            OneOrMany::Many(v) => Inner::Many(v.into_iter()),
        })
    }
}

impl<'a, T> IntoIterator for &'a OneOrMany<T> {
    type Item = &'a T;
    type IntoIter = slice::Iter<'a, T>;

    fn into_iter(self) -> slice::Iter<'a, T> {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut OneOrMany<T> {
    type Item = &'a mut T;
    type IntoIter = slice::IterMut<'a, T>;

    fn into_iter(self) -> slice::IterMut<'a, T> {
        self.iter_mut()
    }
}

impl<T: PartialEq> PartialEq for OneOrMany<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Prints as a list, exactly as the `Vec` of the same elements does.
impl<T: fmt::Debug> fmt::Debug for OneOrMany<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_push_stays_inline_and_second_spills() {
        let mut l = OneOrMany::new();
        assert!(l.is_empty());
        l.push(7u32);
        assert!(matches!(l, OneOrMany::One(7)));
        l.push(8);
        assert!(matches!(&l, OneOrMany::Many(v) if v == &[7, 8]));
        assert_eq!(&*l, &[7, 8]);
    }

    #[test]
    fn a_vec_with_capacity_keeps_taking_pushes() {
        let mut l: OneOrMany<u32> = OneOrMany::Many(Vec::with_capacity(4));
        l.push(1);
        assert!(matches!(&l, OneOrMany::Many(v) if v == &[1]));
    }

    #[test]
    fn inline_equals_the_one_element_vec_form() {
        assert_eq!(OneOrMany::One(3u8), OneOrMany::Many(vec![3]));
        assert_ne!(OneOrMany::One(3u8), OneOrMany::Many(vec![3, 3]));
        assert_eq!(OneOrMany::<u8>::new(), OneOrMany::Many(Vec::new()));
        assert_ne!(OneOrMany::One(3u8), OneOrMany::new());
    }

    #[test]
    fn debug_prints_as_a_list() {
        assert_eq!(format!("{:?}", OneOrMany::One(1u8)), "[1]");
        assert_eq!(format!("{:?}", OneOrMany::Many(vec![1u8, 2])), "[1, 2]");
        assert_eq!(format!("{:?}", OneOrMany::<u8>::new()), "[]");
        let pretty = format!("{:#?}", OneOrMany::One((1u8, 2u8)));
        assert_eq!(pretty, format!("{:#?}", vec![(1u8, 2u8)]));
    }

    #[test]
    fn retain_and_take_leave_the_empty_form() {
        let mut l = OneOrMany::One(5u32);
        l.retain(|&x| x != 5);
        assert!(l.is_empty());
        let mut l = OneOrMany::One(5u32);
        let taken = mem::take(&mut l);
        assert_eq!(&*taken, &[5]);
        assert!(matches!(&l, OneOrMany::Many(v) if v.capacity() == 0));
    }

    #[test]
    fn owned_iteration_knows_its_length() {
        let l: OneOrMany<u32> = (0..3).collect();
        assert_eq!(l.into_iter().size_hint(), (3, Some(3)));
        let one = OneOrMany::One(9u32);
        assert_eq!(one.into_iter().size_hint(), (1, Some(1)));
    }

    /// One edit to a list; applied to a `OneOrMany` and to a `Vec` model.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Extend(Vec<u32>),
        Retain(u32),
        Set(usize, u32),
        Take,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u32>().prop_map(Op::Push),
            proptest::collection::vec(any::<u32>(), 0..4).prop_map(Op::Extend),
            (2u32..5).prop_map(Op::Retain),
            (0usize..6, any::<u32>()).prop_map(|(i, x)| Op::Set(i, x)),
            Just(Op::Take),
        ]
    }

    proptest! {
        /// Every edit keeps the order and contents of the `Vec` model, and
        /// both borrowed and owned iteration see them.
        #[test]
        fn prop_matches_a_vec_model(
            start in proptest::collection::vec(any::<u32>(), 0..3),
            ops in proptest::collection::vec(op(), 0..24),
        ) {
            let mut list: OneOrMany<u32> = start.iter().copied().collect();
            let mut model = start;
            prop_assert_eq!(list.len() == 1, matches!(list, OneOrMany::One(_)));
            for op in ops {
                match op {
                    Op::Push(x) => {
                        list.push(x);
                        model.push(x);
                    }
                    Op::Extend(xs) => {
                        list.extend(xs.iter().copied());
                        model.extend(xs);
                    }
                    Op::Retain(m) => {
                        list.retain(|x| x % m != 0);
                        model.retain(|x| x % m != 0);
                    }
                    Op::Set(i, x) => {
                        if let (Some(a), Some(b)) = (list.get_mut(i), model.get_mut(i)) {
                            *a = x;
                            *b = x;
                        }
                    }
                    Op::Take => {
                        let taken = mem::take(&mut list);
                        prop_assert_eq!(&*taken, &model[..]);
                        model.clear();
                    }
                }
                prop_assert_eq!(&*list, &model[..]);
                prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            }
            let borrowed: Vec<u32> = (&list).into_iter().copied().collect();
            prop_assert_eq!(&borrowed, &model);
            for x in &mut list {
                *x = x.wrapping_add(1);
            }
            let bumped: Vec<u32> = model.iter().map(|x| x.wrapping_add(1)).collect();
            prop_assert_eq!(list.clone(), OneOrMany::Many(bumped.clone()));
            prop_assert_eq!(list.into_iter().collect::<Vec<_>>(), bumped);
        }
    }
}
