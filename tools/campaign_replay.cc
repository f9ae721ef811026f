// Repro replayer: load campaign repro/corpus JSON files, rebuild each
// scenario deterministically, re-check its invariant, and verify the
// outcome matches the case's `expect` field ("fail" for shrunk repros,
// "pass" for curated corpus cases).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/invariants.h"
#include "util/file.h"
#include "util/logging.h"

using namespace sleuth;

namespace {

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

/**
 * Pre-flight the case's invariant and mutation names on the raw
 * document, before reproFromJson (which fatal()s deep in the engine):
 * an unknown name is a malformed repro file (a typo, or a case written
 * for a future registry) and must be a clean per-file hard error
 * listing the valid names — never an abort, and never a silent "pass".
 */
bool
validateNames(const char *path, const util::Json &doc)
{
    if (!doc.has("invariant")) {
        std::fprintf(stderr, "error    %s: missing 'invariant' field\n",
                     path);
        return false;
    }
    std::string invariant = doc.at("invariant").asString();
    if (campaign::tryFindInvariant(invariant) == nullptr) {
        std::vector<std::string> names;
        for (const campaign::Invariant &inv :
             campaign::invariantRegistry())
            names.push_back(inv.name);
        std::fprintf(stderr,
                     "error    %s: unknown invariant '%s' (known: %s)\n",
                     path, invariant.c_str(),
                     joinNames(names).c_str());
        return false;
    }
    const std::vector<std::string> &muts = campaign::knownMutations();
    if (doc.has("mutation")) {
        std::string mutation = doc.at("mutation").asString();
        if (!mutation.empty() &&
            std::find(muts.begin(), muts.end(), mutation) ==
                muts.end()) {
            std::fprintf(stderr,
                         "error    %s: unknown mutation '%s' "
                         "(known: %s)\n",
                         path, mutation.c_str(),
                         joinNames(muts).c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("usage: campaign_replay repro.json...\n");
        return 2;
    }
    int mismatches = 0;
    for (int i = 1; i < argc; ++i) {
        std::string text;
        if (!util::readFile(argv[i], &text))
            util::fatal("cannot read ", argv[i]);
        std::string err;
        util::Json doc = util::Json::parse(text, &err);
        if (!err.empty())
            util::fatal(argv[i], ": ", err);
        if (!validateNames(argv[i], doc)) {
            ++mismatches;
            continue;
        }
        campaign::ReproCase c = campaign::reproFromJson(doc);
        campaign::InvariantResult r = campaign::replayCase(c);
        bool expected_pass = c.expect == "pass";
        bool matched = r.pass == expected_pass;
        std::printf("%-8s %s: %s (%s)%s%s\n",
                    matched ? "ok" : "MISMATCH", argv[i],
                    c.invariant.c_str(),
                    r.pass ? "passed" : "failed",
                    r.detail.empty() ? "" : " — ",
                    r.detail.c_str());
        if (!matched)
            ++mismatches;
    }
    return mismatches == 0 ? 0 : 1;
}
