//! The one bounded ring under the span recorders and the metrics
//! history: an enabled flag, a capacity and a mutex around a
//! `VecDeque`, evicting oldest-first. Recording happens once per epoch,
//! query or metrics tick — never on a per-packet path — so one lock per
//! ring is plenty.

use std::collections::VecDeque;
use std::sync::Mutex;

pub(crate) struct Ring<T> {
    enabled: bool,
    capacity: usize,
    items: Mutex<VecDeque<T>>,
}

impl<T> Ring<T> {
    /// An enabled ring retaining the freshest `capacity` items.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            enabled: true,
            capacity: capacity.max(1),
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// A ring that drops everything (the `DNA_OBS_DISABLED` form).
    pub(crate) fn disabled() -> Self {
        Ring {
            enabled: false,
            ..Self::new(1)
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends `item`, evicting the oldest beyond capacity — unless the
    /// ring is disabled or `admit`, shown the freshest retained item,
    /// refuses it.
    pub(crate) fn push(&self, item: T, admit: impl FnOnce(Option<&T>) -> bool) {
        if !self.enabled {
            return;
        }
        let mut items = crate::lock(&self.items);
        if !admit(items.back()) {
            return;
        }
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    /// What `view` keeps of the retained items, oldest first, truncated
    /// to the freshest `last`.
    pub(crate) fn snapshot<U>(
        &self,
        last: Option<usize>,
        view: impl FnMut(&T) -> Option<U>,
    ) -> Vec<U> {
        let mut kept: Vec<U> = crate::lock(&self.items).iter().filter_map(view).collect();
        if let Some(n) = last {
            let skip = kept.len().saturating_sub(n);
            kept.drain(..skip);
        }
        kept
    }

    pub(crate) fn len(&self) -> usize {
        crate::lock(&self.items).len()
    }
}
