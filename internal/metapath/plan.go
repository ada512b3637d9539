// Cost-based planning for sparse matrix chains. The commuting matrix of
// a meta-path is a product W₀·W₁·…·W_{L-1}; association order changes
// the work by orders of magnitude when the chain runs through a small
// type (e.g. the 20 venues between 800 authors and 2000 papers in
// A-P-V-P-A). The planner is the classic matrix-chain dynamic program,
// but costed for sparse products: the flop estimate for A·B is
// nnz(A)·(nnz(B)/rows(B)) — every stored nonzero of A expands one
// average row of B — and intermediate nnz is estimated as the flop
// count capped by the dense size. Estimates, not truth; but they only
// have to rank orders, not predict runtimes.

package metapath

import (
	"context"
	"fmt"
	"strings"
)

// chainDP holds the interval tables of the dynamic program. Indices are
// leaf (relation) positions: table[i][j] describes the product of
// relations i..j inclusive.
type chainDP struct {
	cost  [][]float64 // estimated flops to materialize the interval
	nnz   [][]float64 // estimated nonzeros of the interval's product
	split [][]int     // top split k: (i..k)·(k+1..j)
}

// prodFlops estimates the multiply work of an (estimated) product:
// left nonzeros each expand an average row of the right operand.
func prodFlops(leftNNZ, rightNNZ float64, inner int) float64 {
	if inner <= 0 {
		return 0
	}
	return leftNNZ * (rightNNZ / float64(inner))
}

// estNNZ caps the flop estimate by the dense size of the product.
func estNNZ(flops float64, rows, cols int) float64 {
	dense := float64(rows) * float64(cols)
	if dense < flops {
		return dense
	}
	return flops
}

// planChain runs the dynamic program over a chain whose i-th relation
// is dims[i]×dims[i+1] with nnz[i] stored nonzeros.
func planChain(dims []int, nnz []float64) chainDP {
	n := len(nnz)
	dp := chainDP{
		cost:  make([][]float64, n),
		nnz:   make([][]float64, n),
		split: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		dp.cost[i] = make([]float64, n)
		dp.nnz[i] = make([]float64, n)
		dp.split[i] = make([]int, n)
		dp.nnz[i][i] = nnz[i]
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span-1 < n; i++ {
			j := i + span - 1
			best, bestK, bestNNZ := -1.0, i, 0.0
			for k := i; k < j; k++ {
				f := prodFlops(dp.nnz[i][k], dp.nnz[k+1][j], dims[k+1])
				c := dp.cost[i][k] + dp.cost[k+1][j] + f
				if best < 0 || c < best {
					best, bestK = c, k
					bestNNZ = estNNZ(f, dims[i], dims[j+1])
				}
			}
			dp.cost[i][j] = best
			dp.split[i][j] = bestK
			dp.nnz[i][j] = bestNNZ
		}
	}
	return dp
}

// Plan describes how the engine would evaluate a path: the association
// order, whether the top level is a Gram factorization, and the
// planner's flop estimates for the chosen and the naive left-to-right
// orders. It exists for tests, benchmarks and observability — CommuteCtx
// does not need a Plan in hand to run.
type Plan struct {
	Path       []string
	Order      string  // parenthesized association order, e.g. "gram((A-P)·(P-V))"
	Gram       bool    // top level evaluated as half·halfᵀ
	EstFlops   float64 // estimated flops of the chosen order
	NaiveFlops float64 // estimated flops of the left-to-right order
}

// Plan compiles a path without materializing it beyond its leaf
// relations (which it needs for nnz estimates, and which land in the
// cache for the eventual CommuteCtx).
func (e *Engine) Plan(path []string) (*Plan, error) {
	if err := e.Validate(path); err != nil {
		return nil, err
	}
	dims, nnz, err := e.leafStats(context.Background(), path)
	if err != nil {
		return nil, err
	}
	dp := planChain(dims, nnz)
	n := len(nnz)
	p := &Plan{
		Path:       append([]string(nil), path...),
		NaiveFlops: naiveFlops(dims, nnz),
	}
	if gramEligible(path) {
		half := n / 2
		halfDP := planChain(dims[:half+1], nnz[:half])
		// The Gram kernel computes only the upper triangle of H·Hᵀ.
		gram := prodFlops(halfDP.nnz[0][half-1], halfDP.nnz[0][half-1], dims[half]) / 2
		p.Gram = true
		p.EstFlops = halfDP.cost[0][half-1] + gram
		p.Order = "gram(" + orderString(path, halfDP, 0, half-1) + ")"
		return p, nil
	}
	p.EstFlops = dp.cost[0][n-1]
	p.Order = orderString(path, dp, 0, n-1)
	return p, nil
}

// naiveFlops estimates the strict left-to-right evaluation cost — the
// baseline CommutingMatrix used before the engine existed.
func naiveFlops(dims []int, nnz []float64) float64 {
	total := 0.0
	accNNZ := nnz[0]
	for i := 1; i < len(nnz); i++ {
		f := prodFlops(accNNZ, nnz[i], dims[i])
		total += f
		accNNZ = estNNZ(f, dims[0], dims[i+1])
	}
	return total
}

// orderString renders the planned association of relations i..j.
func orderString(path []string, dp chainDP, i, j int) string {
	if i == j {
		return fmt.Sprintf("%s-%s", path[i], path[i+1])
	}
	k := dp.split[i][j]
	return "(" + orderString(path, dp, i, k) + " · " + orderString(path, dp, k+1, j) + ")"
}

// String renders the plan compactly for logs and the CLI.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s => %s", join(p.Path), p.Order)
	fmt.Fprintf(&b, " (est %.3g flops, naive %.3g)", p.EstFlops, p.NaiveFlops)
	return b.String()
}
