#include "client.hh"

#include <algorithm>
#include <unordered_set>

namespace perfbench
{

namespace os = rio::os;

const char *
opKindName(OpKind kind)
{
    switch (kind) {
    case OpKind::AppendMail: return "append_mail";
    case OpKind::OverwriteDoc: return "overwrite_doc";
    case OpKind::ReadDoc: return "read_doc";
    }
    return "?";
}

namespace
{

const std::string kMailDir = "/server/mail";
const std::string kDocDir = "/server/docs";

} // namespace

Client::Client(u64 seed, Tracer &tracer)
    : tracer_(tracer), rng_(seed * 0x9e3779b97f4a7c15ull + 1),
      zipfMail_(kMailboxes, kZipfTheta), zipfDocs_(kDocs, kZipfTheta),
      pool_(kPoolBytes + kDocMax), mirror_(kMailboxes + kDocs),
      readBuf_(kRotateBytes + kDocMax + 1), seed_(seed)
{
    rio::support::Rng(seed ^ 0x5eedf00dull).fill(pool_);
    for (u64 box = 0; box < kMailboxes; ++box)
        paths_.push_back(kMailDir + "/user" + std::to_string(box));
    for (u64 doc = 0; doc < kDocs; ++doc)
        paths_.push_back(kDocDir + "/paper" + std::to_string(doc) +
                         ".tex");
}

std::span<const u8>
Client::payload(u64 lo, u64 hi)
{
    Tracer::Scope span(tracer_, "client.payload", Layer::Client);
    const u64 len = rng_.between(lo, hi);
    const u64 off = rng_.below(kPoolBytes);
    return {pool_.data() + off, len};
}

bool
Client::populate(os::Vfs &vfs)
{
    for (const std::string &dir : {std::string("/server"), kMailDir,
                                   kDocDir}) {
        if (!vfs.mkdir(dir).ok())
            return false;
    }
    bool ok = true;
    for (u64 doc = 0; doc < kDocs; ++doc)
        ok = overwriteDoc(vfs, doc) && ok;
    for (u64 box = 0; box < kMailboxes; ++box)
        ok = appendMail(vfs, box) && ok;
    return ok;
}

Client::Step
Client::step(os::Vfs &vfs)
{
    Step out;
    const double roll = rng_.real();
    if (roll < kMixMail) {
        out.kind = OpKind::AppendMail;
        Tracer::Scope span(tracer_, "client.append_mail", Layer::Client);
        out.ok = appendMail(vfs, zipfMail_.sample(rng_));
    } else if (roll < kMixMail + kMixDoc) {
        out.kind = OpKind::OverwriteDoc;
        Tracer::Scope span(tracer_, "client.overwrite_doc",
                           Layer::Client);
        out.ok = overwriteDoc(vfs, zipfDocs_.sample(rng_));
    } else {
        out.kind = OpKind::ReadDoc;
        Tracer::Scope span(tracer_, "client.read_doc", Layer::Client);
        out.ok = readDoc(vfs, zipfDocs_.sample(rng_));
    }
    return out;
}

bool
Client::appendMail(os::Vfs &vfs, u64 box)
{
    const std::span<const u8> mail = payload(kMailMin, kMailMax);
    std::vector<u8> &file = mirror_[box];
    if (file.size() + mail.size() > kRotateBytes) {
        auto cut = tracer_.call("os.sys_truncate", Layer::Os, [&] {
            return vfs.truncate(paths_[box], 0);
        });
        if (!cut.ok()) {
            resync(vfs, box);
            return false;
        }
        tracer_.call("client.mirror", Layer::Client,
                     [&] { file.clear(); });
    }
    auto flags = os::OpenFlags::readWrite(true);
    flags.append = true;
    return writeFile(vfs, box, flags, mail);
}

bool
Client::overwriteDoc(os::Vfs &vfs, u64 doc)
{
    const std::span<const u8> text = payload(kDocMin, kDocMax);
    const u64 id = kMailboxes + doc;
    // The open truncates, so the mirror is emptied first and the
    // write then appends to it like a mail delivery.
    tracer_.call("client.mirror", Layer::Client,
                 [&] { mirror_[id].clear(); });
    return writeFile(vfs, id, os::OpenFlags::writeOnly(), text);
}

bool
Client::writeFile(os::Vfs &vfs, u64 id, os::OpenFlags flags,
                  std::span<const u8> data)
{
    auto fd = tracer_.call("os.sys_open", Layer::Os, [&] {
        return vfs.open(proc_, paths_[id], flags);
    });
    if (!fd.ok()) {
        resync(vfs, id);
        return false;
    }
    auto n = tracer_.call("os.sys_write", Layer::Os, [&] {
        return vfs.write(proc_, fd.value(), data);
    });
    auto closed = tracer_.call("os.sys_close", Layer::Os, [&] {
        return vfs.close(proc_, fd.value());
    });
    if (!n.ok() || n.value() != data.size() || !closed.ok()) {
        resync(vfs, id);
        return false;
    }
    tracer_.call("client.mirror", Layer::Client, [&] {
        mirror_[id].insert(mirror_[id].end(), data.begin(), data.end());
    });
    return true;
}

bool
Client::readDoc(os::Vfs &vfs, u64 doc)
{
    const u64 id = kMailboxes + doc;
    auto fd = tracer_.call("os.sys_open", Layer::Os, [&] {
        return vfs.open(proc_, paths_[id], os::OpenFlags::readOnly());
    });
    if (!fd.ok())
        return false;
    const std::vector<u8> &expect = mirror_[id];
    // One byte more than expected, so a file that grew is caught.
    const std::span<u8> buf(readBuf_.data(), expect.size() + 1);
    auto n = tracer_.call("os.sys_read", Layer::Os, [&] {
        return vfs.read(proc_, fd.value(), buf);
    });
    auto closed = tracer_.call("os.sys_close", Layer::Os, [&] {
        return vfs.close(proc_, fd.value());
    });
    if (!n.ok() || !closed.ok())
        return false;
    const bool same = tracer_.call("client.mirror", Layer::Client, [&] {
        return n.value() == expect.size() &&
               std::equal(expect.begin(), expect.end(), buf.begin());
    });
    if (!same)
        ++readMismatches_;
    return true;
}

bool
Client::readBack(os::Vfs &vfs, const std::string &path, u64 expect)
{
    auto fd = vfs.open(proc_, path, os::OpenFlags::readOnly());
    if (!fd.ok())
        return false;
    auto n = vfs.read(proc_, fd.value(),
                      std::span<u8>(readBuf_.data(), expect + 1));
    const bool closed = vfs.close(proc_, fd.value()).ok();
    return n.ok() && closed && n.value() == expect;
}

void
Client::resync(os::Vfs &vfs, u64 id)
{
    std::vector<u8> &file = mirror_[id];
    file.clear();
    auto st = vfs.stat(paths_[id]);
    if (!st.ok() || st.value().size > readBuf_.size() - 1 ||
        !readBack(vfs, paths_[id], st.value().size))
        return;
    file.assign(readBuf_.begin(),
                readBuf_.begin() +
                    static_cast<std::ptrdiff_t>(st.value().size));
}

std::vector<std::string>
Client::audit(os::Vfs &vfs)
{
    Tracer::Scope span(tracer_, "client.audit", Layer::Client);
    std::vector<std::string> damaged;
    for (u64 id = 0; id < paths_.size(); ++id) {
        const std::vector<u8> &expect = mirror_[id];
        if (!readBack(vfs, paths_[id], expect.size()) ||
            !std::equal(expect.begin(), expect.end(), readBuf_.begin()))
            damaged.push_back(paths_[id]);
    }
    const std::unordered_set<std::string> known(paths_.begin(),
                                                paths_.end());
    for (const std::string &dir : {kMailDir, kDocDir}) {
        auto entries = vfs.readdir(dir);
        if (!entries.ok()) {
            damaged.push_back(dir);
            continue;
        }
        for (const auto &entry : entries.value()) {
            const std::string path = dir + "/" + entry.name;
            if (entry.name != "." && entry.name != ".." &&
                known.count(path) == 0)
                damaged.push_back(path);
        }
    }
    return damaged;
}

bool
Client::plantedMismatchCaught(os::Vfs &vfs)
{
    rio::support::Rng pick(seed_ ^ 0xf11bull);
    u64 id = pick.below(paths_.size());
    while (mirror_[id].empty())
        id = (id + 1) % paths_.size();
    u8 &byte = mirror_[id][pick.below(mirror_[id].size())];
    byte ^= 0x5a;
    const std::vector<std::string> damaged = audit(vfs);
    byte ^= 0x5a;
    return damaged.size() == 1 && damaged.front() == paths_[id];
}

} // namespace perfbench
