#include "tree_edit_distance.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace sleuth::distance {

LabeledTree
traceToTree(const trace::Trace &trace, const trace::TraceGraph &graph)
{
    LabeledTree t;
    size_t n = trace.spans.size();
    t.labels.resize(n);
    t.children.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const trace::Span &s = trace.spans[i];
        t.labels[i] = s.service + "\x1f" + s.name + "\x1f" +
                      toString(s.kind) + "\x1f" +
                      (s.hasError() ? "err" : "ok");
        std::span<const int> kids = graph.children(static_cast<int>(i));
        t.children[i].assign(kids.begin(), kids.end());
        std::sort(t.children[i].begin(), t.children[i].end(),
                  [&](int a, int b) {
            const trace::Span &sa = trace.spans[static_cast<size_t>(a)];
            const trace::Span &sb = trace.spans[static_cast<size_t>(b)];
            if (sa.startUs != sb.startUs)
                return sa.startUs < sb.startUs;
            return sa.spanId < sb.spanId;
        });
    }
    t.root = graph.root();
    return t;
}

namespace {

/** Post-order view of a tree used by the Zhang-Shasha recurrence. */
struct PostOrder
{
    std::vector<std::string> labels;  ///< labels in post order (1-based)
    std::vector<int> lml;             ///< leftmost leaf per node (1-based)
    std::vector<int> keyroots;        ///< LR-keyroots, ascending
    int n = 0;
};

PostOrder
buildPostOrder(const LabeledTree &tree)
{
    PostOrder po;
    po.labels.push_back("");  // 1-based slot
    po.lml.push_back(0);

    // Iterative post-order traversal.
    struct Frame { int node; size_t child; int first_leaf; };
    std::vector<Frame> stack;
    stack.push_back({tree.root, 0, -1});
    std::vector<int> order_of(tree.labels.size(), 0);
    while (!stack.empty()) {
        Frame &f = stack.back();
        const auto &kids = tree.children[static_cast<size_t>(f.node)];
        if (f.child < kids.size()) {
            int c = kids[f.child++];
            stack.push_back({c, 0, -1});
        } else {
            int idx = ++po.n;
            order_of[static_cast<size_t>(f.node)] = idx;
            po.labels.push_back(tree.labels[static_cast<size_t>(f.node)]);
            int lml = kids.empty()
                ? idx
                : po.lml[static_cast<size_t>(
                      order_of[static_cast<size_t>(kids.front())])];
            po.lml.push_back(lml);
            stack.pop_back();
        }
    }

    // Keyroots: for each distinct leftmost-leaf value keep the highest
    // post-order index bearing it.
    std::map<int, int> highest;
    for (int i = 1; i <= po.n; ++i)
        highest[po.lml[static_cast<size_t>(i)]] = i;
    for (const auto &[lml, idx] : highest)
        po.keyroots.push_back(idx);
    std::sort(po.keyroots.begin(), po.keyroots.end());
    return po;
}

} // namespace

int
treeEditDistance(const LabeledTree &a, const LabeledTree &b)
{
    SLEUTH_ASSERT(!a.labels.empty() && !b.labels.empty());
    PostOrder ta = buildPostOrder(a);
    PostOrder tb = buildPostOrder(b);
    const int m = ta.n, n = tb.n;

    std::vector<std::vector<int>> td(
        static_cast<size_t>(m + 1),
        std::vector<int>(static_cast<size_t>(n + 1), 0));

    std::vector<std::vector<int>> fd(
        static_cast<size_t>(m + 2),
        std::vector<int>(static_cast<size_t>(n + 2), 0));

    auto rename_cost = [&](int i, int j) {
        return ta.labels[static_cast<size_t>(i)] ==
                       tb.labels[static_cast<size_t>(j)]
                   ? 0
                   : 1;
    };

    for (int i1 : ta.keyroots) {
        for (int j1 : tb.keyroots) {
            int li = ta.lml[static_cast<size_t>(i1)];
            int lj = tb.lml[static_cast<size_t>(j1)];
            fd[static_cast<size_t>(li - 1)][static_cast<size_t>(lj - 1)] =
                0;
            for (int i = li; i <= i1; ++i)
                fd[static_cast<size_t>(i)][static_cast<size_t>(lj - 1)] =
                    fd[static_cast<size_t>(i - 1)]
                      [static_cast<size_t>(lj - 1)] + 1;
            for (int j = lj; j <= j1; ++j)
                fd[static_cast<size_t>(li - 1)][static_cast<size_t>(j)] =
                    fd[static_cast<size_t>(li - 1)]
                      [static_cast<size_t>(j - 1)] + 1;
            for (int i = li; i <= i1; ++i) {
                for (int j = lj; j <= j1; ++j) {
                    int lmi = ta.lml[static_cast<size_t>(i)];
                    int lmj = tb.lml[static_cast<size_t>(j)];
                    if (lmi == li && lmj == lj) {
                        int d = std::min(
                            {fd[static_cast<size_t>(i - 1)]
                               [static_cast<size_t>(j)] + 1,
                             fd[static_cast<size_t>(i)]
                               [static_cast<size_t>(j - 1)] + 1,
                             fd[static_cast<size_t>(i - 1)]
                               [static_cast<size_t>(j - 1)] +
                                 rename_cost(i, j)});
                        fd[static_cast<size_t>(i)]
                          [static_cast<size_t>(j)] = d;
                        td[static_cast<size_t>(i)]
                          [static_cast<size_t>(j)] = d;
                    } else {
                        fd[static_cast<size_t>(i)]
                          [static_cast<size_t>(j)] = std::min(
                            {fd[static_cast<size_t>(i - 1)]
                               [static_cast<size_t>(j)] + 1,
                             fd[static_cast<size_t>(i)]
                               [static_cast<size_t>(j - 1)] + 1,
                             fd[static_cast<size_t>(lmi - 1)]
                               [static_cast<size_t>(lmj - 1)] +
                                 td[static_cast<size_t>(i)]
                                   [static_cast<size_t>(j)]});
                    }
                }
            }
        }
    }
    return td[static_cast<size_t>(m)][static_cast<size_t>(n)];
}

double
normalizedTreeEditDistance(const trace::Trace &a, const trace::Trace &b)
{
    trace::TraceGraph ga = trace::TraceGraph::build(a);
    trace::TraceGraph gb = trace::TraceGraph::build(b);
    LabeledTree ta = traceToTree(a, ga);
    LabeledTree tb = traceToTree(b, gb);
    int d = treeEditDistance(ta, tb);
    double total =
        static_cast<double>(ta.labels.size() + tb.labels.size());
    return total > 0.0 ? static_cast<double>(d) / total : 0.0;
}

} // namespace sleuth::distance
