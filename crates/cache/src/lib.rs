//! Set-associative cache arrays and replacement policies for the ZeroDEV
//! simulator.
//!
//! The same generic array backs every tagged structure in the machine: the
//! private L1/L2 caches, the shared LLC banks, the sparse-directory slices,
//! the SecDir partitions, and the Multi-grain Directory. The ZeroDEV LLC
//! replacement extensions (`spLRU`, `dataLRU`, §III-D1 of the paper) are
//! expressed through the *protected-line* victim search of
//! [`SetAssoc::insert`] plus caller-controlled recency touches.
//!
//! # Example
//!
//! ```
//! use zerodev_cache::{SetAssoc, Replacement};
//!
//! let mut cache: SetAssoc<&'static str> = SetAssoc::new(2, 2, Replacement::Lru);
//! assert!(cache.insert(0, "a", |_| false).is_none());
//! assert!(cache.insert(2, "b", |_| false).is_none()); // same set as key 0
//! cache.touch(0, |_| true);                            // "a" becomes MRU
//! let victim = cache.insert(4, "c", |_| false).unwrap();
//! assert_eq!(victim, (2, "b"));                        // LRU way evicted
//! ```

mod evbuf;
mod setassoc;

pub use evbuf::EvictionBuffer;
pub use setassoc::{Replacement, SetAssoc};
