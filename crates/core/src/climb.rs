//! Epoch-based hill climbing over a discrete configuration space (§IV-C).
//!
//! The climber performs coordinate ascent: for each parameter it tries a
//! step up, then down, keeping any step that improves the objective (the
//! user-weighted IPC measured over one epoch) and continuing in an improving
//! direction. When a full pass over all `(dimension, direction)` pairs
//! yields no improvement the search converges and the best configuration is
//! held. A `reset` at each phase boundary (§IV-C: every 500 M cycles)
//! re-opens exploration for program phase changes.
//!
//! The climber is generic over the space: dimension sizes plus a validity
//! predicate (Hydrogen uses it to enforce `cap ≥ bw`).

/// Validity predicate over full configurations.
pub type ValidityFn = Box<dyn Fn(&[usize]) -> bool + Send>;

/// Static configuration of the search.
pub struct ClimbConfig {
    /// Number of discrete values in each dimension.
    pub dims: Vec<usize>,
    /// Relative improvement needed to accept a step (noise guard).
    pub eps: f64,
    /// Validity predicate over full configurations.
    pub valid: ValidityFn,
}

impl std::fmt::Debug for ClimbConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClimbConfig")
            .field("dims", &self.dims)
            .field("eps", &self.eps)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Measuring the currently held configuration (baseline).
    Baseline,
    /// Measuring a candidate produced by scan pair `pair`.
    Measuring { pair: usize },
    /// Search finished until the next reset.
    Converged,
}

/// The hill-climbing controller.
#[derive(Debug)]
pub struct HillClimber {
    cfg: ClimbConfig,
    current: Vec<usize>,
    best_score: f64,
    state: State,
    /// Consecutive (dim, dir) attempts without improvement.
    fails: usize,
}

impl HillClimber {
    /// Start at `initial` (must be valid).
    pub fn new(cfg: ClimbConfig, initial: Vec<usize>) -> Self {
        assert_eq!(cfg.dims.len(), initial.len());
        assert!(initial.iter().zip(&cfg.dims).all(|(&v, &n)| v < n));
        assert!((cfg.valid)(&initial), "initial configuration invalid");
        Self {
            cfg,
            current: initial,
            best_score: f64::NEG_INFINITY,
            state: State::Baseline,
            fails: 0,
        }
    }

    /// The configuration that should currently be applied.
    pub fn current(&self) -> &[usize] {
        &self.current
    }

    /// Whether the search has converged.
    pub fn converged(&self) -> bool {
        self.state == State::Converged
    }

    fn num_pairs(&self) -> usize {
        self.cfg.dims.len() * 2
    }

    fn candidate_for(&self, pair: usize) -> Option<Vec<usize>> {
        let dim = pair / 2;
        let up = pair.is_multiple_of(2);
        let mut cand = self.current.clone();
        if up {
            if cand[dim] + 1 >= self.cfg.dims[dim] {
                return None;
            }
            cand[dim] += 1;
        } else {
            if cand[dim] == 0 {
                return None;
            }
            cand[dim] -= 1;
        }
        if (self.cfg.valid)(&cand) {
            Some(cand)
        } else {
            None
        }
    }

    /// Find the next scannable pair starting at `from`, counting skipped
    /// invalid pairs as failures. Returns the pair and its candidate, or
    /// `None` once everything failed (converged).
    fn next_candidate(&mut self, mut from: usize) -> Option<(usize, Vec<usize>)> {
        while self.fails < self.num_pairs() {
            let pair = from % self.num_pairs();
            match self.candidate_for(pair) {
                Some(c) => return Some((pair, c)),
                None => {
                    self.fails += 1;
                    from = pair + 1;
                }
            }
        }
        None
    }

    /// Observe the objective measured for the configuration returned by the
    /// previous call (or the initial one). Returns the configuration to
    /// apply for the next epoch: `Some(cfg)` to (re)configure, `None` when
    /// converged (hold the current best).
    pub fn observe(&mut self, score: f64) -> Option<Vec<usize>> {
        match self.state {
            State::Converged => None,
            State::Baseline => {
                self.best_score = score;
                self.fails = 0;
                match self.next_candidate(0) {
                    Some((pair, cand)) => {
                        self.state = State::Measuring { pair };
                        Some(cand)
                    }
                    None => {
                        self.state = State::Converged;
                        None
                    }
                }
            }
            State::Measuring { pair } => {
                let cand = self
                    .candidate_for(pair)
                    .expect("measured candidate must have been valid");
                if score > self.best_score * (1.0 + self.cfg.eps)
                    || (self.best_score <= 0.0 && score > self.best_score)
                {
                    // Accept; keep pushing the same direction.
                    self.current = cand;
                    self.best_score = score;
                    self.fails = 0;
                    match self.next_candidate(pair) {
                        Some((p2, c2)) => {
                            self.state = State::Measuring { pair: p2 };
                            Some(c2)
                        }
                        None => {
                            self.state = State::Converged;
                            // Re-apply the accepted configuration.
                            Some(self.current.clone())
                        }
                    }
                } else {
                    // Reject; the applied candidate must be rolled back.
                    self.fails += 1;
                    match self.next_candidate(pair + 1) {
                        Some((p2, c2)) => {
                            self.state = State::Measuring { pair: p2 };
                            Some(c2)
                        }
                        None => {
                            self.state = State::Converged;
                            Some(self.current.clone())
                        }
                    }
                }
            }
        }
    }

    /// Phase boundary: re-open the search from the held configuration.
    pub fn reset(&mut self) {
        self.state = State::Baseline;
        self.fails = 0;
        self.best_score = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dims: Vec<usize>) -> ClimbConfig {
        ClimbConfig {
            dims,
            eps: 0.001,
            valid: Box::new(|_| true),
        }
    }

    /// Drive the climber against a closed-form objective until convergence;
    /// returns the final held configuration.
    fn run(mut c: HillClimber, f: impl Fn(&[usize]) -> f64, max_epochs: usize) -> Vec<usize> {
        let mut applied = c.current().to_vec();
        for _ in 0..max_epochs {
            let score = f(&applied);
            match c.observe(score) {
                Some(next) => applied = next,
                None => break,
            }
        }
        assert!(c.converged(), "did not converge");
        c.current().to_vec()
    }

    #[test]
    fn finds_optimum_of_concave_objective() {
        // f(x, y) = -(x-5)^2 - (y-2)^2, dims 10x8, start far away.
        let c = HillClimber::new(cfg(vec![10, 8]), vec![0, 7]);
        let best = run(
            c,
            |v| -((v[0] as f64 - 5.0).powi(2)) - (v[1] as f64 - 2.0).powi(2) + 100.0,
            200,
        );
        assert_eq!(best, vec![5, 2]);
    }

    #[test]
    fn converges_quickly_on_small_space() {
        // The paper observes ~20 steps; our 3-dim Hydrogen space (5x5x8)
        // should converge within a few dozen epochs.
        let c = HillClimber::new(cfg(vec![5, 5, 8]), vec![1, 3, 3]);
        let mut climber = c;
        let f = |v: &[usize]| {
            -((v[0] as f64 - 2.0).powi(2))
                - (v[1] as f64 - 3.0).powi(2)
                - (v[2] as f64 - 5.0).powi(2)
                + 50.0
        };
        let mut applied = climber.current().to_vec();
        let mut epochs = 0;
        for _ in 0..100 {
            epochs += 1;
            match climber.observe(f(&applied)) {
                Some(next) => applied = next,
                None => break,
            }
        }
        assert!(climber.converged());
        assert_eq!(climber.current(), &[2, 3, 5]);
        assert!(epochs <= 40, "took {epochs} epochs");
    }

    #[test]
    fn respects_validity_constraint() {
        // Constraint: dim1 >= dim0 (Hydrogen's C >= B). Start from a point
        // with slack so coordinate ascent can raise dim0 step by step.
        let c = ClimbConfig {
            dims: vec![5, 5],
            eps: 0.001,
            valid: Box::new(|v| v[1] >= v[0]),
        };
        let climber = HillClimber::new(c, vec![0, 4]);
        let best = run(
            climber,
            |v| (v[0] as f64) * 2.0 - (v[1] as f64) * 0.5 + 10.0,
            200,
        );
        assert!(best[1] >= best[0], "constraint violated: {best:?}");
        assert_eq!(best, vec![4, 4]);
    }

    #[test]
    fn flat_objective_converges_without_moving() {
        let climber = HillClimber::new(cfg(vec![4, 4]), vec![2, 2]);
        let best = run(climber, |_| 1.0, 50);
        assert_eq!(best, vec![2, 2]);
    }

    #[test]
    fn reset_reopens_search() {
        let mut climber = HillClimber::new(cfg(vec![10]), vec![0]);
        // Phase 1: optimum at 3.
        let mut applied = climber.current().to_vec();
        for _ in 0..60 {
            let s = -((applied[0] as f64) - 3.0).powi(2) + 10.0;
            match climber.observe(s) {
                Some(n) => applied = n,
                None => break,
            }
        }
        assert_eq!(climber.current(), &[3]);
        // Phase change: optimum moves to 8.
        climber.reset();
        assert!(!climber.converged());
        for _ in 0..60 {
            let s = -((applied[0] as f64) - 8.0).powi(2) + 10.0;
            match climber.observe(s) {
                Some(n) => applied = n,
                None => break,
            }
        }
        assert_eq!(climber.current(), &[8]);
    }

    #[test]
    fn noise_below_eps_is_ignored() {
        let c = ClimbConfig {
            dims: vec![6],
            eps: 0.05,
            valid: Box::new(|_| true),
        };
        let climber = HillClimber::new(c, vec![2]);
        // Tiny (sub-eps) improvements away from 2 must not be chased.
        let best = run(climber, |v| 1.0 + 0.001 * v[0] as f64, 50);
        assert_eq!(best, vec![2]);
    }
}
