//! Sweep-grid helpers for parameter studies.

/// Returns `n` evenly spaced points from `start` to `end` inclusive.
///
/// Returns an empty vector for `n = 0` and `[start]` for `n = 1`.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::grid::linspace;
///
/// let l = linspace(0.0, 5.0, 6);
/// assert_eq!(l, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
/// ```
#[must_use]
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (end - start) / (n - 1) as f64;
            (0..n)
                .map(|i| {
                    if i == n - 1 {
                        end
                    } else {
                        start + step * i as f64
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_are_exact() {
        let l = linspace(0.1, 0.7, 7);
        assert_eq!(l.len(), 7);
        assert_eq!(l[0], 0.1);
        assert_eq!(l[6], 0.7);
    }

    #[test]
    fn linspace_degenerate_cases() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
    }
}
