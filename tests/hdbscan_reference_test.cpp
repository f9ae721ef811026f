// cluster::hdbscan against the implementation it replaced (ctest
// label: differential). The copy below is hdbscan as it was before its
// core distances and Prim's loop streamed over the packed matrix: it
// gathered each row through DistanceMatrix::at, took the core distance
// with nth_element, and ran a separate minimum scan per Prim step. It
// is the reference; labels and cluster counts must stay equal,
// including on tied distances, where the MST and so the dendrogram
// depend on the tie-break order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/hdbscan.h"
#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace sleuth;
using cluster::ClusterResult;
using cluster::HdbscanParams;

namespace reference {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinDist = 1e-12;  // floor before inverting to lambda

/** Dendrogram node of the single-linkage hierarchy. */
struct DendroNode
{
    int left = -1;    ///< child id (leaf < n, internal >= n)
    int right = -1;
    double dist = 0;  ///< merge distance
    int size = 1;
};

/** Condensed-tree cluster. */
struct CondCluster
{
    int parent = -1;             ///< parent cluster id, -1 for root
    double birthLambda = 0.0;    ///< lambda at which this cluster formed
    double birthDist = kInf;     ///< distance at which it formed (1/lambda)
    std::vector<int> childClusters;
    std::vector<std::pair<int, double>> points;  ///< (point, exit lambda)
    double stability = 0.0;
    double score = 0.0;
    bool selected = false;
};

/** Union-find with path compression. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : root_(n)
    {
        std::iota(root_.begin(), root_.end(), 0);
    }

    int
    find(int x)
    {
        while (root_[static_cast<size_t>(x)] != x) {
            root_[static_cast<size_t>(x)] =
                root_[static_cast<size_t>(root_[static_cast<size_t>(x)])];
            x = root_[static_cast<size_t>(x)];
        }
        return x;
    }

    /** Attach both roots under a fresh id (the new dendrogram node). */
    void
    merge(int a, int b, int fresh)
    {
        if (static_cast<size_t>(fresh) >= root_.size())
            root_.resize(static_cast<size_t>(fresh) + 1);
        root_[static_cast<size_t>(fresh)] = fresh;
        root_[static_cast<size_t>(a)] = fresh;
        root_[static_cast<size_t>(b)] = fresh;
    }

  private:
    std::vector<int> root_;
};

/** All leaf points below a dendrogram node. */
void
collectLeaves(const std::vector<DendroNode> &dendro, int node, int n,
              std::vector<int> *out)
{
    if (node < n) {
        out->push_back(node);
        return;
    }
    std::vector<int> stack = {node};
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        if (cur < n) {
            out->push_back(cur);
            continue;
        }
        const DendroNode &d = dendro[static_cast<size_t>(cur - n)];
        stack.push_back(d.left);
        stack.push_back(d.right);
    }
}

int
nodeSize(const std::vector<DendroNode> &dendro, int node, int n)
{
    return node < n ? 1 : dendro[static_cast<size_t>(node - n)].size;
}

} // namespace

ClusterResult
hdbscan(const distance::DistanceMatrix &dist, const HdbscanParams &params)
{
    const size_t n = dist.size();
    ClusterResult res;
    res.labels.assign(n, -1);
    if (n == 0)
        return res;
    const size_t mcs = std::max<size_t>(2, params.minClusterSize);
    if (n < 2 || n < mcs)
        return res;  // nothing can form a cluster: all noise

    // --- Core distances straight off the memoized matrix. ---
    size_t k = std::max<size_t>(1, params.minSamples);
    std::vector<double> core(n, 0.0);
    {
        std::vector<double> row(n - 1);
        for (size_t i = 0; i < n; ++i) {
            size_t w = 0;
            for (size_t j = 0; j < n; ++j)
                if (j != i)
                    row[w++] = dist.at(i, j);
            size_t kk = std::min(k, w) - 1;
            std::nth_element(row.begin(),
                             row.begin() + static_cast<ptrdiff_t>(kk),
                             row.begin() + static_cast<ptrdiff_t>(w));
            core[i] = row[kk];
        }
    }
    auto mreach = [&](size_t i, size_t j) {
        return std::max({core[i], core[j], dist.at(i, j)});
    };

    // --- Prim MST over the mutual-reachability graph. ---
    std::vector<double> best(n, kInf);
    std::vector<int> from(n, -1);
    std::vector<bool> in_tree(n, false);
    best[0] = 0.0;
    struct Edge { int u, v; double w; };
    std::vector<Edge> mst;
    mst.reserve(n - 1);
    for (size_t step = 0; step < n; ++step) {
        size_t u = n;
        double bu = kInf;
        for (size_t i = 0; i < n; ++i)
            if (!in_tree[i] && best[i] < bu) {
                bu = best[i];
                u = i;
            }
        SLEUTH_ASSERT(u < n, "mst disconnect");
        in_tree[u] = true;
        if (from[u] >= 0)
            mst.push_back({from[u], static_cast<int>(u), best[u]});
        for (size_t vtx = 0; vtx < n; ++vtx) {
            if (in_tree[vtx])
                continue;
            double w = mreach(u, vtx);
            if (w < best[vtx]) {
                best[vtx] = w;
                from[vtx] = static_cast<int>(u);
            }
        }
    }
    std::sort(mst.begin(), mst.end(),
              [](const Edge &a, const Edge &b) { return a.w < b.w; });

    // --- Single-linkage dendrogram via union-find. ---
    std::vector<DendroNode> dendro;
    dendro.reserve(n - 1);
    UnionFind uf(2 * n - 1);
    int next_id = static_cast<int>(n);
    for (const Edge &e : mst) {
        int ra = uf.find(e.u);
        int rb = uf.find(e.v);
        SLEUTH_ASSERT(ra != rb, "mst edge within one component");
        DendroNode node;
        node.left = ra;
        node.right = rb;
        node.dist = e.w;
        node.size = nodeSize(dendro, ra, static_cast<int>(n)) +
                    nodeSize(dendro, rb, static_cast<int>(n));
        dendro.push_back(node);
        uf.merge(ra, rb, next_id);
        ++next_id;
    }
    const int root_node = next_id - 1;

    // --- Condense the hierarchy. ---
    std::vector<CondCluster> clusters;
    clusters.push_back(CondCluster{});  // root cluster 0
    clusters[0].birthLambda = 0.0;
    clusters[0].birthDist = kInf;

    const int in = static_cast<int>(n);

    // Walk (dendrogram node, condensed cluster) pairs top-down.
    std::vector<std::pair<int, int>> work = {{root_node, 0}};
    while (!work.empty()) {
        auto [node, cl] = work.back();
        work.pop_back();
        if (node < in) {
            // A bare point inherits the cluster until lambda = inf;
            // it never leaves by splitting.
            clusters[static_cast<size_t>(cl)].points.emplace_back(
                node, kInf);
            continue;
        }
        const DendroNode &dn = dendro[static_cast<size_t>(node - in)];
        double lambda = 1.0 / std::max(dn.dist, kMinDist);
        int ls = nodeSize(dendro, dn.left, in);
        int rs = nodeSize(dendro, dn.right, in);
        bool left_big = static_cast<size_t>(ls) >= mcs;
        bool right_big = static_cast<size_t>(rs) >= mcs;
        if (left_big && right_big) {
            // True split: two new clusters are born at this lambda.
            for (int child : {dn.left, dn.right}) {
                CondCluster c;
                c.parent = cl;
                c.birthLambda = lambda;
                c.birthDist = dn.dist;
                clusters.push_back(c);
                int id = static_cast<int>(clusters.size()) - 1;
                clusters[static_cast<size_t>(cl)].childClusters.push_back(
                    id);
                work.emplace_back(child, id);
            }
        } else if (!left_big && !right_big) {
            // Both sides dissolve: all points leave the cluster here.
            std::vector<int> pts;
            collectLeaves(dendro, dn.left, in, &pts);
            collectLeaves(dendro, dn.right, in, &pts);
            for (int p : pts)
                clusters[static_cast<size_t>(cl)].points.emplace_back(
                    p, lambda);
        } else {
            // The cluster survives through the big side; the small side
            // sheds its points at this lambda.
            int small = left_big ? dn.right : dn.left;
            int big = left_big ? dn.left : dn.right;
            std::vector<int> pts;
            collectLeaves(dendro, small, in, &pts);
            for (int p : pts)
                clusters[static_cast<size_t>(cl)].points.emplace_back(
                    p, lambda);
            work.emplace_back(big, cl);
        }
    }

    // --- Stability. ---
    for (CondCluster &c : clusters) {
        double s = 0.0;
        for (const auto &[p, lam] : c.points) {
            (void)p;
            double l = std::isinf(lam) ? 1.0 / kMinDist : lam;
            s += l - c.birthLambda;
        }
        // Children that survive past this cluster's life contribute the
        // span between birth lambdas for their whole mass.
        c.stability = s;
    }
    for (const CondCluster &c : clusters) {
        if (c.parent >= 0) {
            // Points that continued into child clusters still counted
            // toward the parent from the parent's birth to the split.
            // Account for them via the child's mass.
            size_t mass = 0;
            std::vector<int> stack = {
                static_cast<int>(&c - clusters.data())};
            while (!stack.empty()) {
                int id = stack.back();
                stack.pop_back();
                const CondCluster &cc =
                    clusters[static_cast<size_t>(id)];
                mass += cc.points.size();
                for (int ch : cc.childClusters)
                    stack.push_back(ch);
            }
            clusters[static_cast<size_t>(c.parent)].stability +=
                static_cast<double>(mass) *
                (c.birthLambda -
                 clusters[static_cast<size_t>(c.parent)].birthLambda);
        }
    }

    // --- Excess-of-mass selection (children processed before parents;
    // clusters were appended top-down so reverse order suffices). ---
    for (size_t idx = clusters.size(); idx-- > 0;) {
        CondCluster &c = clusters[idx];
        if (c.childClusters.empty()) {
            c.score = c.stability;
            c.selected = true;
            continue;
        }
        double child_sum = 0.0;
        for (int ch : c.childClusters)
            child_sum += clusters[static_cast<size_t>(ch)].score;
        if (c.stability > child_sum) {
            c.score = c.stability;
            c.selected = true;
        } else {
            c.score = child_sum;
            c.selected = false;
        }
    }
    // The root is never selected on its own (no single-cluster result).
    clusters[0].selected = false;

    // Deselect descendants of selected clusters (top-down sweep).
    for (size_t idx = 0; idx < clusters.size(); ++idx) {
        if (!clusters[idx].selected)
            continue;
        std::vector<int> stack(clusters[idx].childClusters);
        while (!stack.empty()) {
            int id = stack.back();
            stack.pop_back();
            CondCluster &cc = clusters[static_cast<size_t>(id)];
            cc.selected = false;
            for (int ch : cc.childClusters)
                stack.push_back(ch);
        }
    }

    // --- cluster_selection_epsilon: lift selections that split below
    // the epsilon distance up to the first ancestor at or above it. ---
    if (params.clusterSelectionEpsilon > 0.0) {
        std::vector<int> lifted;
        for (size_t idx = 0; idx < clusters.size(); ++idx) {
            if (!clusters[idx].selected)
                continue;
            int cur = static_cast<int>(idx);
            while (clusters[static_cast<size_t>(cur)].parent > 0 &&
                   clusters[static_cast<size_t>(cur)].birthDist <
                       params.clusterSelectionEpsilon) {
                cur = clusters[static_cast<size_t>(cur)].parent;
            }
            clusters[idx].selected = false;
            lifted.push_back(cur);
        }
        for (int id : lifted)
            if (id != 0)
                clusters[static_cast<size_t>(id)].selected = true;
        // Re-run the descendant deselection.
        for (size_t idx = 0; idx < clusters.size(); ++idx) {
            if (!clusters[idx].selected)
                continue;
            std::vector<int> stack(clusters[idx].childClusters);
            while (!stack.empty()) {
                int id = stack.back();
                stack.pop_back();
                CondCluster &cc = clusters[static_cast<size_t>(id)];
                cc.selected = false;
                for (int ch : cc.childClusters)
                    stack.push_back(ch);
            }
        }
    }

    // --- Label assignment: each point joins the nearest selected
    // ancestor of the cluster it fell out of. ---
    std::vector<int> final_label(clusters.size(), -1);
    int next_label = 0;
    for (size_t idx = 0; idx < clusters.size(); ++idx)
        if (clusters[idx].selected)
            final_label[idx] = next_label++;
    for (size_t idx = 0; idx < clusters.size(); ++idx) {
        const CondCluster &c = clusters[idx];
        int owner = -1;
        for (int cur = static_cast<int>(idx); cur >= 0;
             cur = clusters[static_cast<size_t>(cur)].parent) {
            if (clusters[static_cast<size_t>(cur)].selected) {
                owner = final_label[static_cast<size_t>(cur)];
                break;
            }
        }
        if (owner < 0)
            continue;
        for (const auto &[p, lam] : c.points) {
            (void)lam;
            res.labels[static_cast<size_t>(p)] = owner;
        }
    }
    res.numClusters = next_label;
    return res;
}

} // namespace reference

namespace {

void
expectSameClusters(const distance::DistanceMatrix &m,
                   const HdbscanParams &p, const std::string &what)
{
    const ClusterResult got = cluster::hdbscan(m, p);
    const ClusterResult want = reference::hdbscan(m, p);
    EXPECT_EQ(got.numClusters, want.numClusters) << what;
    EXPECT_EQ(got.labels, want.labels) << what;
}

/** Every parameter set the tests sweep for an n-point matrix. */
std::vector<HdbscanParams>
sweep(size_t n)
{
    std::vector<HdbscanParams> out;
    for (size_t samples : {size_t{0}, size_t{1}, size_t{5}, n - 1, n + 3})
        for (double eps : {0.0, 0.3})
            out.push_back({10, samples, eps});
    return out;
}

std::string
describe(size_t n, const HdbscanParams &p)
{
    return "n=" + std::to_string(n) +
           " minClusterSize=" + std::to_string(p.minClusterSize) +
           " minSamples=" + std::to_string(p.minSamples) +
           " eps=" + std::to_string(p.clusterSelectionEpsilon);
}

/** The weighted-Jaccard matrix of n simulated traces under faults. */
distance::DistanceMatrix
simulatedStormMatrix(size_t n, uint64_t seed)
{
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(16, seed));
    sim::ClusterModel cluster(app, 8, seed);
    util::Rng rng(seed);
    chaos::FaultPlan plan = chaos::planFixedFaults(
        cluster.allInstances(), 2, chaos::FaultScope::Container, {}, rng);
    sim::Simulator sim(app, cluster, {.seed = seed}, plan);
    std::vector<distance::WeightedSpanSet> sets;
    for (const sim::SimResult &r : sim.simulateMany(n))
        sets.push_back(distance::encodeSpanSet(
            r.trace, trace::TraceGraph::build(r.trace)));
    return distance::DistanceMatrix::fromSpanSets(sets);
}

} // namespace

TEST(HdbscanReference, SimulatedStormsMatch)
{
    // The storm pipeline's parameters, then the swept ones.
    for (size_t n : {size_t{128}, size_t{256}, size_t{512}, size_t{1024}}) {
        const distance::DistanceMatrix m = simulatedStormMatrix(n, 7 + n);
        expectSameClusters(m, {10, 5, 0.05}, describe(n, {10, 5, 0.05}));
        if (n > 256)
            continue;
        for (const HdbscanParams &p : sweep(n))
            expectSameClusters(m, p, describe(n, p));
    }
}

TEST(HdbscanReference, TieHeavyRandomMatricesMatch)
{
    // Few distinct distance values: most MST edges tie, so the order
    // in which Prim picks vertices decides the dendrogram.
    util::Rng rng(0x71e5);
    for (int round = 0; round < 400; ++round) {
        const size_t n = static_cast<size_t>(rng.uniformInt(2, 121));
        const int levels = static_cast<int>(rng.uniformInt(1, 6));
        distance::DistanceMatrix m(n);
        for (size_t i = 1; i < n; ++i)
            for (size_t j = 0; j < i; ++j)
                m.set(i, j,
                      static_cast<double>(rng.uniformInt(0, levels - 1)) /
                          levels);
        HdbscanParams p;
        p.minClusterSize = static_cast<size_t>(rng.uniformInt(2, 12));
        p.minSamples = static_cast<size_t>(rng.uniformInt(0, 8));
        p.clusterSelectionEpsilon = rng.uniformInt(0, 1) ? 0.3 : 0.0;
        expectSameClusters(m, p, describe(n, p));
    }
}

TEST(HdbscanReference, MinSamplesAndSizeEdgesMatch)
{
    util::Rng rng(0xed9e);
    for (size_t n : {size_t{2}, size_t{3}, size_t{10}, size_t{11},
                     size_t{40}}) {
        distance::DistanceMatrix m(n);
        for (size_t i = 1; i < n; ++i)
            for (size_t j = 0; j < i; ++j)
                m.set(i, j, static_cast<double>(rng.uniformInt(0, 4)) / 4 +
                                rng.uniform(0.0, 0.01));
        for (HdbscanParams p : sweep(n)) {
            expectSameClusters(m, p, describe(n, p));
            // n = minClusterSize: the smallest batch that can cluster.
            p.minClusterSize = n;
            expectSameClusters(m, p, describe(n, p));
            p.minClusterSize = 2;
            expectSameClusters(m, p, describe(n, p));
        }
    }
}
