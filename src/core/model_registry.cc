#include "model_registry.h"

#include <fstream>

#include "util/file.h"

namespace sleuth::core {

std::string
ModelRegistry::add(const std::string &name, const SleuthGnn &model,
                   const std::string &parent)
{
    SLEUTH_ASSERT(!name.empty(), "model name required");
    if (!parent.empty())
        SLEUTH_ASSERT(models_.count(parent), "unknown parent '", parent,
                      "'");
    int version = ++next_version_[name];
    std::string id = name + ":v" + std::to_string(version);
    Entry entry;
    entry.meta.name = name;
    entry.meta.version = version;
    entry.meta.parent = parent;
    entry.blob = model.save();
    models_.emplace(id, std::move(entry));
    order_.push_back(id);
    return id;
}

SleuthGnn
ModelRegistry::instantiate(const std::string &id) const
{
    auto it = models_.find(id);
    if (it == models_.end())
        util::fatal("unknown model '", id, "'");
    if (it->second.meta.retired)
        util::fatal("model '", id, "' is retired");
    return SleuthGnn::fromJson(it->second.blob);
}

void
ModelRegistry::retire(const std::string &id)
{
    auto it = models_.find(id);
    if (it == models_.end())
        util::fatal("unknown model '", id, "'");
    it->second.meta.retired = true;
}

std::vector<ModelMeta>
ModelRegistry::list() const
{
    std::vector<ModelMeta> out;
    for (const std::string &id : order_)
        out.push_back(models_.at(id).meta);
    return out;
}

std::string
ModelRegistry::latest(const std::string &name) const
{
    std::string best;
    int best_version = 0;
    for (const auto &[id, entry] : models_) {
        if (entry.meta.name == name && !entry.meta.retired &&
            entry.meta.version > best_version) {
            best = id;
            best_version = entry.meta.version;
        }
    }
    return best;
}

void
ModelRegistry::saveToFile(const std::string &path) const
{
    util::Json doc = util::Json::array();
    for (const std::string &id : order_) {
        const Entry &e = models_.at(id);
        util::Json j = util::Json::object();
        j.set("id", id);
        j.set("name", e.meta.name);
        j.set("version", e.meta.version);
        j.set("parent", e.meta.parent);
        j.set("retired", e.meta.retired);
        j.set("model", e.blob);
        doc.push(std::move(j));
    }
    std::ofstream out(path);
    if (!out)
        util::fatal("cannot write registry to ", path);
    out << doc.dump();
}

ModelRegistry
ModelRegistry::loadFromFile(const std::string &path)
{
    std::string text;
    if (!util::readFile(path, &text))
        util::fatal("cannot read registry from ", path);
    std::string err;
    util::Json doc = util::Json::parse(text, &err);
    if (!err.empty())
        util::fatal("registry parse error: ", err);

    ModelRegistry reg;
    for (const util::Json &j : doc.asArray()) {
        Entry e;
        e.meta.name = j.at("name").asString();
        e.meta.version = static_cast<int>(j.at("version").asInt());
        e.meta.parent = j.at("parent").asString();
        e.meta.retired = j.at("retired").asBool();
        e.blob = j.at("model");
        std::string id = j.at("id").asString();
        reg.models_.emplace(id, std::move(e));
        reg.order_.push_back(id);
        int &next = reg.next_version_[reg.models_.at(id).meta.name];
        next = std::max(next, reg.models_.at(id).meta.version);
    }
    return reg;
}

} // namespace sleuth::core
