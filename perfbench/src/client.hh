/**
 * @file
 * The benchmark's load generator: a mail/document server's traffic
 * (50 % append-mail, 30 % overwrite-doc, 20 % read, zipf 0.99 over 64
 * mailboxes and 256 documents, mailboxes rotated at 256 KiB), driven
 * only through the public os::Vfs system calls. Payloads are cut from
 * a seeded pool built at construction, so generating a request costs
 * a few random draws. Every file is mirrored host-side; reads and the
 * audit compare the file system against that mirror byte for byte.
 */

#ifndef PERFBENCH_CLIENT_HH
#define PERFBENCH_CLIENT_HH

#include <span>
#include <string>
#include <vector>

#include "harness/bench.hh"
#include "os/vfs.hh"
#include "support/rng.hh"
#include "support/types.hh"
#include "trace.hh"

namespace perfbench
{

using rio::u64;
using rio::u8;

enum class OpKind : rio::u8
{
    AppendMail,
    OverwriteDoc,
    ReadDoc,
};

constexpr int kOpKinds = 3;

const char *opKindName(OpKind kind);

class Client
{
  public:
    static constexpr u64 kMailboxes = 64;
    static constexpr u64 kDocs = 256;
    static constexpr double kZipfTheta = 0.99;
    static constexpr double kMixMail = 0.5;
    static constexpr double kMixDoc = 0.3; ///< The rest are reads.
    static constexpr u64 kMailMin = 256, kMailMax = 4096;
    static constexpr u64 kDocMin = 2048, kDocMax = 32768;
    static constexpr u64 kRotateBytes = 256 * 1024;
    static constexpr u64 kPoolBytes = 1 << 20;

    Client(u64 seed, Tracer &tracer);

    /** mkdir the tree and write every mailbox and document once, so
     *  zipf-tail reads find real files. */
    bool populate(rio::os::Vfs &vfs);

    struct Step
    {
        OpKind kind = OpKind::ReadDoc;
        bool ok = false;
    };

    /** Draw and run one request. A failed request resynchronises the
     *  mirror from the file system so later checks stay exact. */
    Step step(rio::os::Vfs &vfs);

    /** Paths that differ from the mirror (wrong size or bytes, or
     *  missing), plus stray files the mirror does not know. */
    std::vector<std::string> audit(rio::os::Vfs &vfs);

    /**
     * Plant one flipped byte in the mirror of a seed-chosen file and
     * require the audit to name exactly that file, then undo it: the
     * audit cannot pass vacuously.
     */
    bool plantedMismatchCaught(rio::os::Vfs &vfs);

    /** Reads whose bytes differed from the mirror. */
    u64 readMismatches() const { return readMismatches_; }

  private:
    std::span<const u8> payload(u64 lo, u64 hi);
    bool appendMail(rio::os::Vfs &vfs, u64 box);
    bool overwriteDoc(rio::os::Vfs &vfs, u64 doc);
    bool readDoc(rio::os::Vfs &vfs, u64 doc);
    bool writeFile(rio::os::Vfs &vfs, u64 id, rio::os::OpenFlags flags,
                   std::span<const u8> data);
    bool readBack(rio::os::Vfs &vfs, const std::string &path,
                  u64 expect);
    void resync(rio::os::Vfs &vfs, u64 id);

    Tracer &tracer_;
    rio::support::Rng rng_;
    rio::harness::Zipfian zipfMail_;
    rio::harness::Zipfian zipfDocs_;
    std::vector<u8> pool_;
    /** Mailboxes are ids [0, kMailboxes), documents follow. */
    std::vector<std::string> paths_;
    std::vector<std::vector<u8>> mirror_;
    std::vector<u8> readBuf_;
    rio::os::Process proc_{1};
    u64 seed_;
    u64 readMismatches_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HH
