// Package datagen provides substitutes for the paper's evaluation datasets:
// a hotspot-gravity taxi simulator standing in for the proprietary T-Drive
// traces, and a road-network moving-object generator reproducing the
// process of Brinkhoff's generator used for the paper's Oldenburg and
// SanJoaquin datasets. Both emit continuous raw trajectories; the pipeline
// discretizes them onto whatever grid an experiment selects.
package datagen

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"

	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// RoadNetwork is a spatially embedded undirected graph standing in for a
// city road map.
type RoadNetwork struct {
	Nodes []trajectory.RawPoint
	Adj   [][]int32
}

// NumNodes returns the node count.
func (n *RoadNetwork) NumNodes() int { return len(n.Nodes) }

// GenerateRoadNetwork builds a jittered lattice road network with side× side
// intersections over the given bounds: lattice edges are kept with high
// probability, a few long diagonals are added, and connectivity is repaired
// so every node is reachable.
func GenerateRoadNetwork(side int, minX, minY, maxX, maxY float64, seed uint64) (*RoadNetwork, error) {
	if side < 2 {
		return nil, fmt.Errorf("datagen: road network side must be ≥ 2, got %d", side)
	}
	if !(maxX > minX) || !(maxY > minY) {
		return nil, fmt.Errorf("datagen: invalid road network bounds")
	}
	rng := ldp.NewRand(seed, seed^0xabcdef123456)
	n := side * side
	net := &RoadNetwork{
		Nodes: make([]trajectory.RawPoint, n),
		Adj:   make([][]int32, n),
	}
	sx := (maxX - minX) / float64(side)
	sy := (maxY - minY) / float64(side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := r*side + c
			net.Nodes[id] = trajectory.RawPoint{
				X: minX + (float64(c)+0.5)*sx + (rng.Float64()-0.5)*0.5*sx,
				Y: minY + (float64(r)+0.5)*sy + (rng.Float64()-0.5)*0.5*sy,
			}
		}
	}
	addEdge := func(a, b int) {
		net.Adj[a] = append(net.Adj[a], int32(b))
		net.Adj[b] = append(net.Adj[b], int32(a))
	}
	const keepProb = 0.9
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := r*side + c
			if c+1 < side && rng.Float64() < keepProb {
				addEdge(id, id+1)
			}
			if r+1 < side && rng.Float64() < keepProb {
				addEdge(id, id+side)
			}
		}
	}
	// A few diagonal shortcuts (arterial roads).
	for i := 0; i < side; i++ {
		r, c := rng.IntN(side-1), rng.IntN(side-1)
		addEdge(r*side+c, (r+1)*side+c+1)
	}
	net.repairConnectivity(rng)
	return net, nil
}

// repairConnectivity links disconnected components to the largest one via
// their spatially nearest node pairs.
func (net *RoadNetwork) repairConnectivity(rng *rand.Rand) {
	n := len(net.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(comps)
		queue := []int{start}
		comp[start] = id
		var members []int
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			for _, u := range net.Adj[v] {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, int(u))
				}
			}
		}
		comps = append(comps, members)
	}
	if len(comps) <= 1 {
		return
	}
	// Attach every smaller component to the largest by its nearest pair.
	largest := 0
	for i, m := range comps {
		if len(m) > len(comps[largest]) {
			largest = i
		}
	}
	for i, members := range comps {
		if i == largest {
			continue
		}
		bestA, bestB, bestD := members[0], comps[largest][0], math.Inf(1)
		for _, a := range members {
			for _, b := range comps[largest] {
				d := net.dist(a, b)
				if d < bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		net.Adj[bestA] = append(net.Adj[bestA], int32(bestB))
		net.Adj[bestB] = append(net.Adj[bestB], int32(bestA))
	}
}

func (net *RoadNetwork) dist(a, b int) float64 {
	dx := net.Nodes[a].X - net.Nodes[b].X
	dy := net.Nodes[a].Y - net.Nodes[b].Y
	return math.Hypot(dx, dy)
}

// pqItem is an A* frontier entry.
type pqItem struct {
	node int32
	prio float64
}

type priorityQueue []pqItem

func (p priorityQueue) Len() int           { return len(p) }
func (p priorityQueue) Less(i, j int) bool { return p[i].prio < p[j].prio }
func (p priorityQueue) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *priorityQueue) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *priorityQueue) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// ShortestPath returns the node sequence of an A* (Euclidean heuristic)
// shortest path from a to b, inclusive of both endpoints. The second result
// is false when no path exists.
func (net *RoadNetwork) ShortestPath(a, b int) ([]int32, bool) {
	if a == b {
		return []int32{int32(a)}, true
	}
	n := len(net.Nodes)
	dist := make([]float64, n)
	prev := make([]int32, n)
	closed := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[a] = 0
	pq := &priorityQueue{{node: int32(a), prio: net.dist(a, b)}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pqItem)
		v := int(cur.node)
		if closed[v] {
			continue
		}
		if v == b {
			break
		}
		closed[v] = true
		for _, u := range net.Adj[v] {
			if closed[u] {
				continue
			}
			d := dist[v] + net.dist(v, int(u))
			if d < dist[u] {
				dist[u] = d
				prev[u] = int32(v)
				heap.Push(pq, pqItem{node: u, prio: d + net.dist(int(u), b)})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return nil, false
	}
	var path []int32
	for v := int32(b); v >= 0; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}
