//! 0/1 knapsack solvers for the weight-locality step (paper §4.2:
//! "we propose to use the Knapsack algorithm to store, as much as
//! possible, weights in the accelerators' local DRAM").
//!
//! DRAM capacities are gigabytes while layer weights are kilobytes to
//! hundreds of megabytes, so the classic DP runs on a *scaled* capacity
//! grid: item weights are rounded **up** to the grid (so no solution can
//! oversubscribe the board) and the grid is sized to `DP_GRID` cells.
//! The greedy fallback sorts by value density — optimal when values are
//! proportional to weights (the paper's saved-transfer-time objective),
//! near-optimal otherwise.

/// Capacity grid cells used by the scaled DP.
const DP_GRID: u64 = 4096;

/// Largest item count the auto solver hands to the DP.
const DP_MAX_ITEMS: usize = 512;

/// One pinnable candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Caller-side identifier (e.g. a dense layer index).
    pub id: usize,
    /// Weight in bytes.
    pub weight: u64,
    /// Benefit of selecting this item (e.g. saved transfer seconds).
    pub value: f64,
}

/// Exact (up to grid rounding) scaled dynamic-programming solver.
/// Returns the chosen item ids, in input order.
pub fn solve_dp(items: &[Item], capacity: u64) -> Vec<usize> {
    if capacity == 0 || items.is_empty() {
        return Vec::new();
    }
    // Grid cell size; weights round UP so feasibility is conservative.
    let cell = (capacity / DP_GRID).max(1);
    let cap_cells = (capacity / cell) as usize;
    let scaled: Vec<u64> = items.iter().map(|it| it.weight.div_ceil(cell)).collect();

    // dp[c] = best value at capacity c; keep[i][c] = item i taken at c.
    let mut dp = vec![0.0f64; cap_cells + 1];
    let mut keep = vec![vec![false; cap_cells + 1]; items.len()];
    for (i, item) in items.iter().enumerate() {
        let w = scaled[i] as usize;
        if w > cap_cells || item.value <= 0.0 {
            continue;
        }
        for c in (w..=cap_cells).rev() {
            let cand = dp[c - w] + item.value;
            if cand > dp[c] {
                dp[c] = cand;
                keep[i][c] = true;
            }
        }
    }
    // Backtrack.
    let mut c = cap_cells;
    let mut chosen = Vec::new();
    for i in (0..items.len()).rev() {
        if keep[i][c] {
            chosen.push(items[i].id);
            c -= scaled[i] as usize;
        }
    }
    chosen.reverse();
    chosen
}

/// Density-greedy solver: select by `value/weight` (then larger value)
/// while capacity lasts. Zero-weight items with positive value are
/// always taken.
pub fn solve_greedy(items: &[Item], capacity: u64) -> Vec<usize> {
    // Densities are memoized once: the comparator runs `O(n log n)`
    // times and the two float divides per call dominated the sort on
    // the search core's per-candidate hot path. The memoized value is
    // the exact same expression, so the order (and the selection) is
    // unchanged bitwise.
    let mut order: Vec<(f64, &Item)> = items
        .iter()
        .filter(|it| it.value > 0.0)
        .map(|it| (it.value / it.weight.max(1) as f64, it))
        .collect();
    order.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap()
            .then(b.1.value.partial_cmp(&a.1.value).unwrap())
            .then(a.1.id.cmp(&b.1.id))
    });
    let mut left = capacity;
    let mut chosen = Vec::new();
    for (_, it) in order {
        if it.weight <= left {
            left -= it.weight;
            chosen.push(it.id);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Auto solver: greedy when every item has (near-)identical value
/// density — there greedy is optimal and orders of magnitude cheaper,
/// and the paper's saved-transfer-time objective is exactly this case —
/// otherwise DP for small instances, greedy for large ones.
pub fn solve_auto(items: &[Item], capacity: u64) -> Vec<usize> {
    let mut min_d = f64::INFINITY;
    let mut max_d = 0.0f64;
    for it in items.iter().filter(|it| it.value > 0.0) {
        let d = it.value / it.weight.max(1) as f64;
        min_d = min_d.min(d);
        max_d = max_d.max(d);
    }
    let uniform_density = !max_d.is_finite() || max_d <= min_d * 1.001;
    if uniform_density || items.len() > DP_MAX_ITEMS {
        solve_greedy(items, capacity)
    } else {
        solve_dp(items, capacity)
    }
}

/// Total value of a selection (test/reporting helper).
pub fn selection_value(items: &[Item], chosen: &[usize]) -> f64 {
    items
        .iter()
        .filter(|it| chosen.contains(&it.id))
        .map(|it| it.value)
        .sum()
}

/// Total weight of a selection.
pub fn selection_weight(items: &[Item], chosen: &[usize]) -> u64 {
    items
        .iter()
        .filter(|it| chosen.contains(&it.id))
        .map(|it| it.weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(list: &[(u64, f64)]) -> Vec<Item> {
        list.iter()
            .enumerate()
            .map(|(id, &(weight, value))| Item { id, weight, value })
            .collect()
    }

    #[test]
    fn dp_beats_greedy_on_classic_trap() {
        // Greedy by density takes the small dense item and misses the
        // optimal pair.
        let its = items(&[(6, 30.0), (5, 14.0), (5, 14.0)]);
        let dp = solve_dp(&its, 10);
        let greedy = solve_greedy(&its, 10);
        assert_eq!(selection_value(&its, &dp), 30.0);
        assert!(selection_value(&its, &greedy) <= 30.0);
        assert!(selection_weight(&its, &dp) <= 10);
    }

    #[test]
    fn dp_respects_capacity_after_scaling() {
        // Capacities far above the grid force cell > 1; rounding up must
        // keep every solution feasible.
        let its = items(&[
            (3_000_000_000, 3.0),
            (3_000_000_001, 3.0),
            (2_000_000_000, 2.0),
            (500_000_000, 1.0),
        ]);
        let cap = 8_000_000_000;
        let chosen = solve_dp(&its, cap);
        assert!(selection_weight(&its, &chosen) <= cap);
        assert!(
            selection_value(&its, &chosen) >= 5.0,
            "should pick ~7-8 GB worth"
        );
    }

    #[test]
    fn greedy_is_optimal_for_proportional_values() {
        // Values proportional to weights (the paper's objective):
        // greedy by density = take in any order until full.
        let its = items(&[(100, 1.0), (200, 2.0), (300, 3.0), (50, 0.5)]);
        let g = solve_greedy(&its, 350);
        let d = solve_dp(&its, 350);
        assert_eq!(selection_value(&its, &g), selection_value(&its, &d));
        assert!(selection_weight(&its, &g) <= 350);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let its = items(&[(1, 1.0)]);
        assert!(solve_dp(&its, 0).is_empty());
        assert!(solve_greedy(&its, 0).is_empty());
    }

    #[test]
    fn worthless_items_ignored() {
        let its = items(&[(10, 0.0), (10, -1.0), (10, 5.0)]);
        assert_eq!(solve_dp(&its, 100), vec![2]);
        assert_eq!(solve_greedy(&its, 100), vec![2]);
    }

    #[test]
    fn everything_fits_when_capacity_is_large() {
        let its = items(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert_eq!(solve_dp(&its, 1000), vec![0, 1, 2]);
        assert_eq!(solve_greedy(&its, 1000), vec![0, 1, 2]);
    }

    #[test]
    fn auto_switches_to_greedy_on_huge_instances() {
        let many: Vec<Item> = (0..600)
            .map(|id| Item {
                id,
                weight: 10,
                value: 1.0,
            })
            .collect();
        let chosen = solve_auto(&many, 100);
        assert_eq!(chosen.len(), 10);
    }

    #[test]
    fn dp_never_below_greedy() {
        // Pseudo-random instances: DP (exact up to scaling; cell=1 here)
        // must weakly dominate greedy.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let its: Vec<Item> = (0..12)
                .map(|id| Item {
                    id,
                    weight: next() % 64 + 1,
                    value: (next() % 1000) as f64 / 10.0,
                })
                .collect();
            let cap = next() % 256 + 16;
            let dp = solve_dp(&its, cap);
            let gr = solve_greedy(&its, cap);
            assert!(selection_weight(&its, &dp) <= cap);
            assert!(selection_weight(&its, &gr) <= cap);
            assert!(
                selection_value(&its, &dp) >= selection_value(&its, &gr) - 1e-9,
                "dp {} < greedy {}",
                selection_value(&its, &dp),
                selection_value(&its, &gr)
            );
        }
    }
}
