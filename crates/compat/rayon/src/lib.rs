//! Offline stand-in for the `rayon` crate: the `par_iter` /
//! `par_iter_mut` / `into_par_iter` entry points return the corresponding
//! **sequential** iterators.
//!
//! No workspace crate calls it: `congest_sim`, `treedec` and `labelserve`
//! keep the dependency only so that `perfbench/Cargo.lock` stays unchanged
//! (see `crates/compat/README.md`).

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

/// `into_par_iter()` — sequential stand-in for rayon's owned-value entry
/// point. Blanket-implemented for every `IntoIterator`.
pub trait IntoParallelIterator {
    type Item;
    type Iter: Iterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: IntoIterator> IntoParallelIterator for I {
    type Item = I::Item;
    type Iter = I::IntoIter;

    fn into_par_iter(self) -> Self::Iter {
        self.into_iter()
    }
}

/// `par_iter()` — sequential stand-in for rayon's by-reference entry point.
pub trait IntoParallelRefIterator<'data> {
    type Item: 'data;
    type Iter: Iterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoIterator,
{
    type Item = <&'data I as IntoIterator>::Item;
    type Iter = <&'data I as IntoIterator>::IntoIter;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_iter()
    }
}

/// `par_iter_mut()` — sequential stand-in for rayon's by-mutable-reference
/// entry point.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: 'data;
    type Iter: Iterator<Item = Self::Item>;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoIterator,
{
    type Item = <&'data mut I as IntoIterator>::Item;
    type Iter = <&'data mut I as IntoIterator>::IntoIter;

    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn entry_points_behave_like_iterators() {
        let v = vec![1u32, 2, 3];
        let doubled: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);

        let mut w = vec![1u32, 2, 3];
        w.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(w, vec![11, 12, 13]);

        let sum: u32 = w.into_par_iter().sum();
        assert_eq!(sum, 36);

        let s: &[u32] = &[5, 6];
        assert!(s.par_iter().enumerate().all(|(i, &x)| x as usize == i + 5));
    }
}
