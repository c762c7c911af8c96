package main

// Every SQL text the benchmark sends is pinned here, so a change to the
// engine's own query helpers (internal/bench, internal/proc) cannot
// change what is measured. The %d verbs are the iteration count and the
// literals the adhoc workload varies per round.

const (
	createEdges  = "CREATE TABLE edges (src int, dst int, weight float)"
	createStatus = "CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)"
)

// sqlPR is PageRank, Figure 2 of the paper. Args: iterations.
const sqlPR = `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL %d ITERATIONS )
SELECT Node, Rank FROM PageRank`

// sqlPRVS is PR-VS (§V-A): PageRank over available nodes only. Args:
// iterations.
const sqlPRVS = `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
    JOIN vertexStatus AS avail_pr ON avail_pr.node = IncomingEdges.dst
  WHERE avail_pr.status != 0
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL %d ITERATIONS )
SELECT Node, Rank FROM PageRank`

// sqlSSSP is single-source shortest path, Figure 7. Args: source,
// iterations.
const sqlSSSP = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
  WHERE IncomingDistance.Delta != 9999999
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL %d ITERATIONS)
SELECT Node, Distance FROM sssp`

// sqlSSSPVS is Figure 7 with the availability join of the Figure 9/11
// experiments. Args: source, iterations.
const sqlSSSPVS = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL %d ITERATIONS)
SELECT Node, Distance FROM sssp`

// sqlFF is the friends forecast, Figure 6. Args: iterations, modulus,
// limit.
const sqlFF = `WITH ITERATIVE forecast (node, friends, friendsPrev)
AS( SELECT src AS node, count(dst) AS friends,
      ceiling(count(dst) * (1.0-(src%%10)/100.0)) AS friendsPrev
    FROM edges GROUP BY src
 ITERATE
   SELECT node AS node,
      round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
      friends AS friendsPrev
   FROM forecast
 UNTIL %d ITERATIONS )
SELECT node, friends
FROM forecast WHERE MOD(node, %d) = 0
ORDER BY friends DESC LIMIT %d`

// ffExpr is the per-row expression of sqlFF's iterative part, compiled
// and evaluated on its own by the expr layer probe.
const ffExpr = "round(cast((friends / friendsPrev) * friends AS numeric), 5)"

// limitSuffix makes a text unique per adhoc round without changing its
// answer: the limit is always above the row count. Args: limit.
const limitSuffix = " ORDER BY Node LIMIT %d"

// sqlInDegree is the adhoc workload's plain SELECT: a join and a GROUP
// BY, no CTE. Args: limit.
const sqlInDegree = `SELECT e.dst AS node, COUNT(*) AS indeg, SUM(e.weight) AS w
FROM edges AS e JOIN vertexStatus AS v ON v.node = e.dst
WHERE v.status != 0
GROUP BY e.dst
ORDER BY node LIMIT %d`

// sqlReach is the adhoc workload's recursive CTE: the nodes reachable
// from a start node. Args: start, limit.
const sqlReach = `WITH RECURSIVE reach (node) AS (
  SELECT %d
  UNION
  SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
) SELECT node FROM reach ORDER BY node LIMIT %d`

// The Figure 11 stored procedure for SSSP-VS: the same recurrence as
// sqlSSSPVS, one statement at a time through Exec.
var (
	procSetup = []string{
		"CREATE TABLE __sssp (node int, distance float, delta float)",
		"CREATE TABLE __sssp_inter (node int, distance float, delta float)",
	}
	// Args: source.
	procInit = `INSERT INTO __sssp
 SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)`
	procBody = []string{
		"DELETE FROM __sssp_inter",
		`INSERT INTO __sssp_inter
  SELECT __sssp.node,
    LEAST(__sssp.distance, __sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM __sssp
   LEFT JOIN edges AS IncomingEdges ON __sssp.node = IncomingEdges.dst
   LEFT JOIN __sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY __sssp.node, LEAST(__sssp.distance, __sssp.delta)`,
		`UPDATE __sssp SET distance = __sssp_inter.distance, delta = __sssp_inter.delta
 FROM __sssp_inter WHERE __sssp.node = __sssp_inter.node`,
	}
	procFinal    = "SELECT node, distance FROM __sssp ORDER BY node"
	procTeardown = []string{
		"DROP TABLE __sssp",
		"DROP TABLE __sssp_inter",
	}
)
