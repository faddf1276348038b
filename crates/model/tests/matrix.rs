//! The exhaustive matrix, pinned: every configuration of
//! [`zerodev_model::config::matrix`] must explore clean and to completion,
//! reaching exactly the pinned `(states, transitions)`. A change to the
//! canonical state encoding that merges or splits states moves these
//! counts.

use zerodev_model::config::matrix;
use zerodev_model::{explore, Limits};

/// `(states, transitions)` per configuration, in `matrix()` order.
const GOLDEN: [(usize, usize); 17] = [
    (11, 54),
    (14, 70),
    (11, 54),
    (19, 92),
    (14, 70),
    (19, 92),
    (11, 54),
    (24, 117),
    (11, 54),
    (1027, 9734),
    (229, 2200),
    (1801, 17104),
    (229, 2200),
    (293, 2820),
    (357, 3424),
    (21, 161),
    (11963, 246684),
];

#[test]
fn every_matrix_config_explores_clean_to_its_pinned_counts() {
    let configs = matrix();
    assert_eq!(configs.len(), GOLDEN.len(), "one golden per configuration");
    for (mc, &golden) in configs.iter().zip(&GOLDEN) {
        let ex = explore(mc, &Limits::default());
        assert!(
            ex.clean(),
            "{mc}: {:?} / {:?}",
            ex.violation,
            ex.undrainable
        );
        assert!(!ex.truncated, "{mc}: exploration truncated");
        assert_eq!((ex.states, ex.transitions), golden, "{mc}");
    }
}
