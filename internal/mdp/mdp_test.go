package mdp

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAutomatonValidation(t *testing.T) {
	if _, err := NewAutomaton("k", 1, 0, 0, 10); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := NewAutomaton("k", 1, 1, 10, 0); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := NewAutomaton("k", 99, 1, 0, 10); err == nil {
		t.Fatal("out-of-bounds start accepted")
	}
}

func TestCandidateClampsAtBounds(t *testing.T) {
	a, err := NewAutomaton("k", 9.5, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Candidate(Increase); got != 10 {
		t.Fatalf("increase candidate = %g, want clamp at 10", got)
	}
	if got := a.Candidate(Decrease); got != 8.5 {
		t.Fatalf("decrease candidate = %g", got)
	}
}

func TestFeedbackShiftsProbabilities(t *testing.T) {
	a, _ := NewAutomaton("k", 5, 1, 0, 10)
	a.Feedback(Increase, true)
	pi, pd := a.Probabilities()
	if !(pi > 0.5) || math.Abs(pi+pd-1) > 1e-12 {
		t.Fatalf("after reward: P=(%g, %g)", pi, pd)
	}
	a.Feedback(Increase, false)
	pi2, _ := a.Probabilities()
	if !(pi2 < pi) {
		t.Fatalf("penalty did not reduce probability: %g → %g", pi, pi2)
	}
}

func TestFeedbackKeepsExplorationFloor(t *testing.T) {
	a, _ := NewAutomaton("k", 5, 1, 0, 10)
	for i := 0; i < 200; i++ {
		a.Feedback(Increase, true)
	}
	pi, pd := a.Probabilities()
	if pd < 0.02-1e-12 {
		t.Fatalf("exploration floor violated: P(decrease) = %g", pd)
	}
	if math.Abs(pi+pd-1) > 1e-12 {
		t.Fatal("probabilities do not sum to 1")
	}
}

// episode runs steps Choose/Feedback rounds of a against profit, the
// gain of moving the knob to a candidate value, committing every
// profitable move. It returns the summed profit, the number of
// profitable steps, and the fraction of steps with a profitable
// direction on which the automaton took the better one.
func episode(a *Automaton, rng *rand.Rand, profit func(float64) float64, steps int) (reward float64, throttles int, accuracy float64) {
	var gradient, correct int
	for s := 0; s < steps; s++ {
		act := a.Choose(rng)
		other := Increase
		if act == Increase {
			other = Decrease
		}
		p, q := profit(a.Candidate(act)), profit(a.Candidate(other))
		a.Feedback(act, p > 0)
		reward += p
		if p > 0 || q > 0 {
			gradient++
			if p > 0 && p >= q {
				correct++
			}
		}
		if p > 0 {
			throttles++
			a.Commit(act)
		}
	}
	if gradient > 0 {
		accuracy = float64(correct) / float64(gradient)
	}
	return reward, throttles, accuracy
}

func TestAutomatonConvergesToProfitableDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, _ := NewAutomaton("random_page_cost", 4, 0.25, 1, 10)
	// True optimum at 1.5: moving toward it profits.
	profit := func(cand float64) float64 {
		return math.Abs(a.Value()-1.5) - math.Abs(cand-1.5)
	}
	_, throttles, _ := episode(a, rng, profit, 400)
	if a.Value() > 2.5 {
		t.Fatalf("did not converge toward optimum: value = %g", a.Value())
	}
	_, pd := a.Probabilities()
	if !(pd > 0.5) {
		t.Fatalf("decrease probability = %g, want > 0.5 near optimum-from-above", pd)
	}
	if throttles == 0 {
		t.Fatal("profitable episode raised no throttles")
	}
}

func TestEpisodicRewardImprovesAcrossEpisodes(t *testing.T) {
	// Fig. 6(a): rewards grow as the automaton learns the direction.
	// The optimum sits beyond the reach of the episode budget so the
	// profitable direction stays "increase" throughout.
	rng := rand.New(rand.NewSource(2))
	a, _ := NewAutomaton("effective_io_concurrency", 1, 1, 0, 10_000)
	profit := func(cand float64) float64 {
		return math.Abs(a.Value()-9000) - math.Abs(cand-9000)
	}
	firstReward, _, firstAcc := episode(a, rng, profit, 100)
	for i := 0; i < 3; i++ {
		episode(a, rng, profit, 100)
	}
	lastReward, _, lastAcc := episode(a, rng, profit, 100)
	if !(lastAcc > firstAcc) {
		t.Fatalf("accuracy did not improve: %.2f → %.2f", firstAcc, lastAcc)
	}
	if !(lastReward > firstReward) {
		t.Fatalf("reward did not improve: %.1f → %.1f", firstReward, lastReward)
	}
}

func TestActionString(t *testing.T) {
	if Increase.String() != "increase" || Decrease.String() != "decrease" {
		t.Fatal("action strings wrong")
	}
}
