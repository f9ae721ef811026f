#include "config.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace sleuth::synth {

const char *
toString(Tier tier)
{
    switch (tier) {
      case Tier::Frontend: return "frontend";
      case Tier::Middleware: return "middleware";
      case Tier::Backend: return "backend";
      case Tier::Leaf: return "leaf";
    }
    util::panic("invalid tier");
}

bool
tryTierFromString(const std::string &s, Tier *out)
{
    if (s == "frontend")
        *out = Tier::Frontend;
    else if (s == "middleware")
        *out = Tier::Middleware;
    else if (s == "backend")
        *out = Tier::Backend;
    else if (s == "leaf")
        *out = Tier::Leaf;
    else
        return false;
    return true;
}

Tier
tierFromString(const std::string &s)
{
    Tier tier;
    if (!tryTierFromString(s, &tier))
        util::fatal("unknown tier '", s, "'");
    return tier;
}

const char *
toString(Resource r)
{
    switch (r) {
      case Resource::Cpu: return "cpu";
      case Resource::Memory: return "memory";
      case Resource::Disk: return "disk";
      case Resource::Network: return "network";
    }
    util::panic("invalid resource");
}

bool
tryResourceFromString(const std::string &s, Resource *out)
{
    if (s == "cpu")
        *out = Resource::Cpu;
    else if (s == "memory")
        *out = Resource::Memory;
    else if (s == "disk")
        *out = Resource::Disk;
    else if (s == "network")
        *out = Resource::Network;
    else
        return false;
    return true;
}

Resource
resourceFromString(const std::string &s)
{
    Resource r;
    if (!tryResourceFromString(s, &r))
        util::fatal("unknown resource '", s, "'");
    return r;
}

std::string
AppConfig::validationError() const
{
    std::string prefix = "app '" + name + "': ";
    if (services.empty())
        return prefix + "no services";
    if (rpcs.empty())
        return prefix + "no rpcs";
    if (flows.empty())
        return prefix + "no flows";
    for (size_t i = 0; i < services.size(); ++i) {
        if (services[i].id != static_cast<int>(i))
            return prefix + "service ids must be dense";
        if (services[i].replicas < 1)
            return prefix + "service '" + services[i].name +
                   "' needs >= 1 replica";
    }
    for (size_t i = 0; i < rpcs.size(); ++i) {
        if (rpcs[i].id != static_cast<int>(i))
            return prefix + "rpc ids must be dense";
        if (rpcs[i].serviceId < 0 ||
            rpcs[i].serviceId >= static_cast<int>(services.size()))
            return prefix + "rpc '" + rpcs[i].name +
                   "' references unknown service";
    }
    for (const FlowConfig &f : flows) {
        if (f.nodes.empty())
            return prefix + "flow '" + f.name + "' is empty";
        if (f.root < 0 || f.root >= static_cast<int>(f.nodes.size()))
            return prefix + "flow '" + f.name + "' has invalid root";
        std::vector<int> indegree(f.nodes.size(), 0);
        for (const CallNode &nd : f.nodes) {
            if (nd.rpcId < 0 ||
                nd.rpcId >= static_cast<int>(rpcs.size()))
                return prefix + "flow '" + f.name +
                       "' references unknown rpc";
            for (int c : nd.children) {
                if (c < 0 || c >= static_cast<int>(f.nodes.size()))
                    return prefix + "flow '" + f.name +
                           "' has invalid child index";
                ++indegree[static_cast<size_t>(c)];
            }
        }
        for (size_t i = 0; i < f.nodes.size(); ++i) {
            int expected = static_cast<int>(i) == f.root ? 0 : 1;
            if (indegree[i] != expected)
                return prefix + "flow '" + f.name + "' node " +
                       std::to_string(i) + " has in-degree " +
                       std::to_string(indegree[i]) +
                       " (call trees require " +
                       std::to_string(expected) + ")";
        }
    }
    return {};
}

void
AppConfig::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        util::fatal(err);
}

size_t
AppConfig::maxFlowNodes() const
{
    size_t best = 0;
    for (const FlowConfig &f : flows)
        best = std::max(best, f.nodes.size());
    return best;
}

int
AppConfig::maxFlowDepth() const
{
    int best = 0;
    for (const FlowConfig &f : flows) {
        // Iterative DFS with depths.
        std::vector<std::pair<int, int>> stack = {{f.root, 1}};
        while (!stack.empty()) {
            auto [node, depth] = stack.back();
            stack.pop_back();
            best = std::max(best, depth);
            for (int c : f.nodes[static_cast<size_t>(node)].children)
                stack.emplace_back(c, depth + 1);
        }
    }
    return best;
}

int
AppConfig::maxFanout() const
{
    size_t best = 0;
    for (const FlowConfig &f : flows)
        for (const CallNode &nd : f.nodes)
            best = std::max(best, nd.children.size());
    return static_cast<int>(best);
}

namespace {

util::Json
kernelToJson(const KernelConfig &k)
{
    util::Json j = util::Json::object();
    j.set("resource", toString(k.resource));
    j.set("logMu", k.logMu);
    j.set("logSigma", k.logSigma);
    return j;
}

// tryAppFromJson reads every field through util's checked getters,
// so a defect names its path (e.g. "rpcs[3].startKernel.resource").

bool
tryKernelFromJson(const util::Json &j, const std::string &path,
                  KernelConfig *k, std::string *error)
{
    std::string res;
    if (!getString(j, path, "resource", &res, error))
        return false;
    if (!tryResourceFromString(res, &k->resource)) {
        *error = util::joinPath(path, "resource") +
                 ": unknown resource '" + res + "'";
        return false;
    }
    return getNumber(j, path, "logMu", &k->logMu, error) &&
           getNumber(j, path, "logSigma", &k->logSigma, error);
}

} // namespace

util::Json
toJson(const AppConfig &app)
{
    util::Json doc = util::Json::object();
    doc.set("name", app.name);
    doc.set("network", kernelToJson(app.network));

    util::Json services = util::Json::array();
    for (const ServiceConfig &s : app.services) {
        util::Json j = util::Json::object();
        j.set("id", s.id);
        j.set("name", s.name);
        j.set("tier", toString(s.tier));
        j.set("replicas", s.replicas);
        services.push(std::move(j));
    }
    doc.set("services", std::move(services));

    util::Json rpcs = util::Json::array();
    for (const RpcConfig &r : app.rpcs) {
        util::Json j = util::Json::object();
        j.set("id", r.id);
        j.set("serviceId", r.serviceId);
        j.set("name", r.name);
        j.set("startKernel", kernelToJson(r.startKernel));
        j.set("endKernel", kernelToJson(r.endKernel));
        j.set("baseErrorProb", r.baseErrorProb);
        j.set("timeoutUs", r.timeoutUs);
        rpcs.push(std::move(j));
    }
    doc.set("rpcs", std::move(rpcs));

    util::Json flows = util::Json::array();
    for (const FlowConfig &f : app.flows) {
        util::Json j = util::Json::object();
        j.set("name", f.name);
        j.set("root", f.root);
        j.set("weight", f.weight);
        j.set("sloUs", f.sloUs);
        util::Json nodes = util::Json::array();
        for (const CallNode &nd : f.nodes) {
            util::Json nj = util::Json::object();
            nj.set("rpcId", nd.rpcId);
            nj.set("async", nd.async);
            nj.set("stage", nd.stage);
            util::Json kids = util::Json::array();
            for (int c : nd.children)
                kids.push(c);
            nj.set("children", std::move(kids));
            nodes.push(std::move(nj));
        }
        j.set("nodes", std::move(nodes));
        flows.push(std::move(j));
    }
    doc.set("flows", std::move(flows));
    return doc;
}

bool
tryAppFromJson(const util::Json &doc, AppConfig *out, std::string *error)
{
    std::string scratch;
    std::string *e = error ? error : &scratch;

    AppConfig app;
    if (!getString(doc, "", "name", &app.name, e))
        return false;
    const util::Json *net;
    if (!getField(doc, "", "network", &net, e))
        return false;
    if (!tryKernelFromJson(*net, "network", &app.network, e))
        return false;

    const util::Json::Array *services;
    if (!getArray(doc, "", "services", &services, e))
        return false;
    for (size_t i = 0; i < services->size(); ++i) {
        const util::Json &j = (*services)[i];
        std::string path = "services[" + std::to_string(i) + "]";
        ServiceConfig s;
        int64_t v;
        if (!getInt(j, path, "id", &v, e))
            return false;
        s.id = static_cast<int>(v);
        if (!getString(j, path, "name", &s.name, e))
            return false;
        std::string tier;
        if (!getString(j, path, "tier", &tier, e))
            return false;
        if (!tryTierFromString(tier, &s.tier)) {
            *e = path + ".tier: unknown tier '" + tier + "'";
            return false;
        }
        if (!getInt(j, path, "replicas", &v, e))
            return false;
        s.replicas = static_cast<int>(v);
        app.services.push_back(std::move(s));
    }

    const util::Json::Array *rpcs;
    if (!getArray(doc, "", "rpcs", &rpcs, e))
        return false;
    for (size_t i = 0; i < rpcs->size(); ++i) {
        const util::Json &j = (*rpcs)[i];
        std::string path = "rpcs[" + std::to_string(i) + "]";
        RpcConfig r;
        int64_t v;
        if (!getInt(j, path, "id", &v, e))
            return false;
        r.id = static_cast<int>(v);
        if (!getInt(j, path, "serviceId", &v, e))
            return false;
        r.serviceId = static_cast<int>(v);
        if (!getString(j, path, "name", &r.name, e))
            return false;
        const util::Json *k;
        if (!getField(j, path, "startKernel", &k, e) ||
            !tryKernelFromJson(*k, path + ".startKernel", &r.startKernel,
                               e))
            return false;
        if (!getField(j, path, "endKernel", &k, e) ||
            !tryKernelFromJson(*k, path + ".endKernel", &r.endKernel, e))
            return false;
        if (!getNumber(j, path, "baseErrorProb", &r.baseErrorProb, e))
            return false;
        if (!getInt(j, path, "timeoutUs", &r.timeoutUs, e))
            return false;
        app.rpcs.push_back(std::move(r));
    }

    const util::Json::Array *flows;
    if (!getArray(doc, "", "flows", &flows, e))
        return false;
    for (size_t i = 0; i < flows->size(); ++i) {
        const util::Json &j = (*flows)[i];
        std::string path = "flows[" + std::to_string(i) + "]";
        FlowConfig f;
        int64_t v;
        if (!getString(j, path, "name", &f.name, e))
            return false;
        if (!getInt(j, path, "root", &v, e))
            return false;
        f.root = static_cast<int>(v);
        if (!getNumber(j, path, "weight", &f.weight, e))
            return false;
        if (!getInt(j, path, "sloUs", &f.sloUs, e))
            return false;
        const util::Json::Array *nodes;
        if (!getArray(j, path, "nodes", &nodes, e))
            return false;
        for (size_t n = 0; n < nodes->size(); ++n) {
            const util::Json &nj = (*nodes)[n];
            std::string npath = path + ".nodes[" + std::to_string(n) +
                                "]";
            CallNode nd;
            if (!getInt(nj, npath, "rpcId", &v, e))
                return false;
            nd.rpcId = static_cast<int>(v);
            if (!getBool(nj, npath, "async", &nd.async, e))
                return false;
            if (!getInt(nj, npath, "stage", &v, e))
                return false;
            nd.stage = static_cast<int>(v);
            const util::Json::Array *kids;
            if (!getArray(nj, npath, "children", &kids, e))
                return false;
            for (size_t c = 0; c < kids->size(); ++c) {
                if ((*kids)[c].type() != util::Json::Type::Number) {
                    *e = npath + ".children[" + std::to_string(c) +
                         "]: expected a number";
                    return false;
                }
                nd.children.push_back(
                    static_cast<int>((*kids)[c].asInt()));
            }
            f.nodes.push_back(std::move(nd));
        }
        app.flows.push_back(std::move(f));
    }

    *e = app.validationError();
    if (!e->empty())
        return false;
    *out = std::move(app);
    return true;
}

AppConfig
appFromJson(const util::Json &doc)
{
    AppConfig app;
    std::string error;
    if (!tryAppFromJson(doc, &app, &error))
        util::fatal(error);
    return app;
}

} // namespace sleuth::synth
