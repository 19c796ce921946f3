/**
 * @file
 * Recorded generator output: every kernel generator, over a grid of
 * configurations the zoo models do not serve, must emit exactly the
 * program (FNV-1a of dsp::hashProgramCode plus the noalias extents) and
 * the buffer sizes recorded from an earlier build.
 *
 * GoldenServedTest pins only the kernels the zoo serves. This table pins
 * the rest of each generator's space: every matmul scheme at every unroll
 * candidate and two shapes, spilling tiles, odd k unrolls and unrollOut
 * above 1; every elementwise op at three unrolls; depthwise filters from
 * 3x3 to a 15x1 column at both strides. A refactor of the generators
 * must leave it unchanged. On any mismatch the test prints the whole
 * actual table in source form, ready to paste over kRecorded.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/unroll.h"

namespace gcd2::kernels {
namespace {

struct ProgramRow
{
    std::string name;
    uint64_t hash;
    int64_t inputBytes;
    int64_t weightBytes;
    int64_t outputBytes;
    int64_t scratchBytes;

    friend bool operator==(const ProgramRow &, const ProgramRow &) = default;
};

// clang-format off
const std::vector<ProgramRow> kRecorded = {
    {"vmpy 70x45x11 u1/1/1", 0xe3de8d672d5491f4ull, 5888, 1980, 1408, 0},
    {"vmpy 70x45x11 u1/1/2", 0x9090a169d338e3a6ull, 6016, 2028, 1408, 0},
    {"vmpy 70x45x11 u1/1/4", 0x985a7e5cf96cece0ull, 6272, 2124, 1408, 0},
    {"vmpy 70x45x11 u1/1/8", 0x1b5d8d12a2307714ull, 6272, 2140, 1408, 0},
    {"vmpy 70x45x11 u1/2/1", 0x36888d2168e15b83ull, 5888, 2164, 1536, 0},
    {"vmpy 70x45x11 u1/2/2", 0x4b54f8d2922fb948ull, 6016, 2220, 1536, 0},
    {"vmpy 70x45x11 u1/2/4", 0xc265f0fffffc19edull, 6272, 2332, 1536, 0},
    {"vmpy 70x45x11 u1/2/8", 0x3f77c45e0056fabeull, 6272, 2364, 1536, 0},
    {"vmpy 70x45x11 u1/4/1", 0x3dc5c4a5d9ce4845ull, 5888, 2172, 1536, 0},
    {"vmpy 70x45x11 u1/4/2", 0x7a9260058e15f6c9ull, 6016, 2236, 1536, 0},
    {"vmpy 70x45x11 u1/4/4", 0x8b18c781c3681caull, 6272, 2364, 1536, 0},
    {"vmpy 70x45x11 u1/4/8", 0x46fb5519dfd30462ull, 6272, 2364, 1536, 0},
    {"vmpy 70x45x11 u1/8/1", 0x2bef44734b76bda0ull, 5888, 2908, 2048, 0},
    {"vmpy 70x45x11 u1/8/2", 0xcce2ade0fa3b7ac5ull, 6016, 3004, 2048, 0},
    {"vmpy 70x45x11 u1/8/4", 0xad384f85215e3e91ull, 6272, 3132, 2048, 0},
    {"vmpy 70x45x11 u1/8/8", 0xdf623620b2a44991ull, 6272, 3132, 2048, 0},
    {"vmpy 70x45x11 u2/1/1", 0xdbaedc4a66794fefull, 11648, 1980, 2816, 0},
    {"vmpy 70x45x11 u2/1/2", 0x310b7e303b2bd284ull, 11904, 2028, 2816, 0},
    {"vmpy 70x45x11 u2/1/4", 0x173b1791ea2dac0bull, 12416, 2124, 2816, 0},
    {"vmpy 70x45x11 u2/1/8", 0x61e827324cf64b7ull, 12416, 2140, 2816, 0},
    {"vmpy 70x45x11 u2/2/1", 0xfcaa914604e72321ull, 11648, 2164, 3072, 0},
    {"vmpy 70x45x11 u2/2/2", 0xf7a9c379dc6bbbeeull, 11904, 2220, 3072, 0},
    {"vmpy 70x45x11 u2/2/4", 0x28cb24b208bd7c9aull, 12416, 2332, 3072, 0},
    {"vmpy 70x45x11 u2/2/8", 0x224b3407a7bef965ull, 12416, 2364, 3072, 0},
    {"vmpy 70x45x11 u2/4/1", 0x990cf98bb5486192ull, 11648, 2172, 3072, 0},
    {"vmpy 70x45x11 u2/4/2", 0x37b85131b28482e1ull, 11904, 2236, 3072, 0},
    {"vmpy 70x45x11 u2/4/4", 0x1d3fd2d3f8b3237dull, 12416, 2364, 3072, 0},
    {"vmpy 70x45x11 u2/4/8", 0x9acb2935027cf971ull, 12416, 2364, 3072, 0},
    {"vmpy 70x45x11 u2/8/1", 0xaad38149fdd57b19ull, 11648, 2908, 4096, 2048},
    {"vmpy 70x45x11 u2/8/2", 0xc1fdd2f3cd1d0fdfull, 11904, 3004, 4096, 2048},
    {"vmpy 70x45x11 u2/8/4", 0x5feba270f2fe0dbeull, 12416, 3132, 4096, 2048},
    {"vmpy 70x45x11 u2/8/8", 0xd4675211bb95df08ull, 12416, 3132, 4096, 2048},
    {"vmpy 300x600x90 u1/1/1", 0x858314be6822e205ull, 230528, 216000, 34560, 0},
    {"vmpy 300x600x90 u1/1/2", 0xac894aacc7730e9dull, 230528, 216004, 34560, 0},
    {"vmpy 300x600x90 u1/1/4", 0x5a486981b7dda357ull, 230528, 216012, 34560, 0},
    {"vmpy 300x600x90 u1/1/8", 0x2bda01f7b18e7480ull, 230528, 216028, 34560, 0},
    {"vmpy 300x600x90 u1/2/1", 0x7736c1e8a91665eaull, 230528, 216004, 34560, 0},
    {"vmpy 300x600x90 u1/2/2", 0xf37dd1215e7f5adaull, 230528, 216012, 34560, 0},
    {"vmpy 300x600x90 u1/2/4", 0x4f40aededf57123bull, 230528, 216028, 34560, 0},
    {"vmpy 300x600x90 u1/2/8", 0x16d94eda4069e94dull, 230528, 216060, 34560, 0},
    {"vmpy 300x600x90 u1/4/1", 0x1d1f39a72492c412ull, 230528, 220812, 35328, 0},
    {"vmpy 300x600x90 u1/4/2", 0x495ef72995032177ull, 230528, 220828, 35328, 0},
    {"vmpy 300x600x90 u1/4/4", 0x9def039a1c3fc9dull, 230528, 220860, 35328, 0},
    {"vmpy 300x600x90 u1/4/8", 0x541c7866e2e74f50ull, 230528, 220860, 35328, 0},
    {"vmpy 300x600x90 u1/8/1", 0x633a0bbf2e36ff24ull, 230528, 230428, 36864, 0},
    {"vmpy 300x600x90 u1/8/2", 0xf1f6299c71915056ull, 230528, 230460, 36864, 0},
    {"vmpy 300x600x90 u1/8/4", 0x93f3b170f496cdf5ull, 230528, 230460, 36864, 0},
    {"vmpy 300x600x90 u1/8/8", 0x655a3477296bdd98ull, 230528, 230460, 36864, 0},
    {"vmpy 300x600x90 u2/1/1", 0xdcb88cf5214d94a1ull, 307328, 216000, 46080, 0},
    {"vmpy 300x600x90 u2/1/2", 0xd9bf7149e14f68b8ull, 307328, 216004, 46080, 0},
    {"vmpy 300x600x90 u2/1/4", 0xa79bde03b1a8f5b4ull, 307328, 216012, 46080, 0},
    {"vmpy 300x600x90 u2/1/8", 0xa6252a891035277full, 307328, 216028, 46080, 0},
    {"vmpy 300x600x90 u2/2/1", 0xc0fed94197f92d35ull, 307328, 216004, 46080, 0},
    {"vmpy 300x600x90 u2/2/2", 0xa5a5e39502e0617ull, 307328, 216012, 46080, 0},
    {"vmpy 300x600x90 u2/2/4", 0x8c6e4d30a0bc54acull, 307328, 216028, 46080, 0},
    {"vmpy 300x600x90 u2/2/8", 0xdbc00286898d84c4ull, 307328, 216060, 46080, 0},
    {"vmpy 300x600x90 u2/4/1", 0xbf610a1a79357deeull, 307328, 220812, 47104, 0},
    {"vmpy 300x600x90 u2/4/2", 0x173bd8f109188ea4ull, 307328, 220828, 47104, 0},
    {"vmpy 300x600x90 u2/4/4", 0x8f170df35c65c7eeull, 307328, 220860, 47104, 0},
    {"vmpy 300x600x90 u2/4/8", 0x30cfaaa279d5d991ull, 307328, 220860, 47104, 0},
    {"vmpy 300x600x90 u2/8/1", 0xb0e9fb985812df6eull, 307328, 230428, 49152, 2048},
    {"vmpy 300x600x90 u2/8/2", 0xe7c67a60dffe2a17ull, 307328, 230460, 49152, 2048},
    {"vmpy 300x600x90 u2/8/4", 0x5945c14ab7c81846ull, 307328, 230460, 49152, 2048},
    {"vmpy 300x600x90 u2/8/8", 0x1b8e5a799d5c983bull, 307328, 230460, 49152, 2048},
    {"vmpa 70x45x11 u1/1/1", 0x23f6d50b9558e327ull, 6400, 580, 1536, 0},
    {"vmpa 70x45x11 u1/1/2", 0x79c344e90337e384ull, 6400, 588, 1536, 0},
    {"vmpa 70x45x11 u1/1/4", 0x6d5473ed186e78efull, 6400, 604, 1536, 0},
    {"vmpa 70x45x11 u1/1/8", 0x599e4d9d0e14f2b2ull, 8448, 828, 1536, 0},
    {"vmpa 70x45x11 u1/2/1", 0x1a4b3406a85e5cb5ull, 6400, 588, 1536, 0},
    {"vmpa 70x45x11 u1/2/2", 0xaba014d0afe86217ull, 6400, 604, 1536, 0},
    {"vmpa 70x45x11 u1/2/4", 0x8ef05e6a1cbe409dull, 6400, 636, 1536, 0},
    {"vmpa 70x45x11 u1/2/8", 0xc0f555e80a6cfa4eull, 8448, 828, 1536, 0},
    {"vmpa 70x45x11 u1/4/1", 0xd182608f19c06844ull, 6400, 796, 2048, 0},
    {"vmpa 70x45x11 u1/4/2", 0x2125b3577df89341ull, 6400, 828, 2048, 0},
    {"vmpa 70x45x11 u1/4/4", 0xf0f4ef7910609a70ull, 6400, 828, 2048, 0},
    {"vmpa 70x45x11 u1/4/8", 0x76b6c5fde1ad6d51ull, 8448, 1084, 2048, 0},
    {"vmpa 70x45x11 u1/8/1", 0x1105253143f79fecull, 6400, 828, 2048, 2048},
    {"vmpa 70x45x11 u1/8/2", 0x839c74e2ccdb4422ull, 6400, 828, 2048, 2048},
    {"vmpa 70x45x11 u1/8/4", 0xfd5716db7f67e35ull, 6400, 828, 2048, 2048},
    {"vmpa 70x45x11 u1/8/8", 0xc6e40a84b811b13cull, 8448, 1084, 2048, 2048},
    {"vmpa 70x45x11 u2/1/1", 0x36f353bcccdafa86ull, 6400, 580, 1536, 0},
    {"vmpa 70x45x11 u2/1/2", 0xa2261ac96e052e69ull, 6400, 588, 1536, 0},
    {"vmpa 70x45x11 u2/1/4", 0x8f43aab3be81f2a2ull, 6400, 604, 1536, 0},
    {"vmpa 70x45x11 u2/1/8", 0x16c51103ff45483full, 8448, 828, 1536, 0},
    {"vmpa 70x45x11 u2/2/1", 0x4678fb5700f7c4e9ull, 6400, 588, 1536, 0},
    {"vmpa 70x45x11 u2/2/2", 0xcb4929b5db5249c0ull, 6400, 604, 1536, 0},
    {"vmpa 70x45x11 u2/2/4", 0x8c7dab0729885e1cull, 6400, 636, 1536, 0},
    {"vmpa 70x45x11 u2/2/8", 0xbf42c70c581463cfull, 8448, 828, 1536, 0},
    {"vmpa 70x45x11 u2/4/1", 0x266f558b728ffbfbull, 6400, 796, 2048, 2048},
    {"vmpa 70x45x11 u2/4/2", 0x714cf95710477fddull, 6400, 828, 2048, 2048},
    {"vmpa 70x45x11 u2/4/4", 0xebfa177554d221eeull, 6400, 828, 2048, 2048},
    {"vmpa 70x45x11 u2/4/8", 0x7187db42e3003557ull, 8448, 1084, 2048, 2048},
    {"vmpa 70x45x11 u2/8/1", 0x23e9da9a6700c9e9ull, 6400, 828, 2048, 6144},
    {"vmpa 70x45x11 u2/8/2", 0xa8380260995ff104ull, 6400, 828, 2048, 6144},
    {"vmpa 70x45x11 u2/8/4", 0xea29ce5b7a4b59ddull, 6400, 828, 2048, 6144},
    {"vmpa 70x45x11 u2/8/8", 0x3edbb41db05b2a60ull, 8448, 1084, 2048, 6144},
    {"vmpa 300x600x90 u1/1/1", 0x63d3ff88b14cc193ull, 192256, 54004, 28800, 0},
    {"vmpa 300x600x90 u1/1/2", 0xaff4b803ba2f959dull, 192256, 54012, 28800, 0},
    {"vmpa 300x600x90 u1/1/4", 0x43c9b60581cb73bdull, 194816, 54748, 28800, 0},
    {"vmpa 300x600x90 u1/1/8", 0x2ab5b236d6464a8full, 194816, 54780, 28800, 0},
    {"vmpa 300x600x90 u1/2/1", 0x3e318a0cea0f465aull, 192256, 55212, 29440, 0},
    {"vmpa 300x600x90 u1/2/2", 0xa30aa93acda13f9bull, 192256, 55228, 29440, 0},
    {"vmpa 300x600x90 u1/2/4", 0x398d1f112d8e52c0ull, 194816, 55996, 29440, 0},
    {"vmpa 300x600x90 u1/2/8", 0xa51abfd23a96a1d9ull, 194816, 55996, 29440, 0},
    {"vmpa 300x600x90 u1/4/1", 0x76b1a74d00eb930cull, 192256, 57628, 30720, 0},
    {"vmpa 300x600x90 u1/4/2", 0xadc148a33c27f3eaull, 192256, 57660, 30720, 0},
    {"vmpa 300x600x90 u1/4/4", 0x2be77e1207fe59adull, 194816, 58428, 30720, 0},
    {"vmpa 300x600x90 u1/4/8", 0x4c9db62fac945806ull, 194816, 58428, 30720, 0},
    {"vmpa 300x600x90 u1/8/1", 0x49658ec2f6ea397aull, 192256, 57660, 30720, 2048},
    {"vmpa 300x600x90 u1/8/2", 0x3fc3d1ed64d0d23bull, 192256, 57660, 30720, 2048},
    {"vmpa 300x600x90 u1/8/4", 0x6e475a4b25f1e040ull, 194816, 58428, 30720, 2048},
    {"vmpa 300x600x90 u1/8/8", 0x1f14ca7eca8c3a67ull, 194816, 58428, 30720, 2048},
    {"vmpa 300x600x90 u2/1/1", 0xb5eb2df6820e1895ull, 230656, 54004, 34560, 0},
    {"vmpa 300x600x90 u2/1/2", 0x5c9cd2c5a513c65ull, 230656, 54012, 34560, 0},
    {"vmpa 300x600x90 u2/1/4", 0xd98da1282f858289ull, 233728, 54748, 34560, 0},
    {"vmpa 300x600x90 u2/1/8", 0xabfb8a7861cb4733ull, 233728, 54780, 34560, 0},
    {"vmpa 300x600x90 u2/2/1", 0x8c48667c2567556eull, 230656, 55212, 35328, 0},
    {"vmpa 300x600x90 u2/2/2", 0x1bce292d43df210ull, 230656, 55228, 35328, 0},
    {"vmpa 300x600x90 u2/2/4", 0x71543d3775916c19ull, 233728, 55996, 35328, 0},
    {"vmpa 300x600x90 u2/2/8", 0xccfdd789c470d10cull, 233728, 55996, 35328, 0},
    {"vmpa 300x600x90 u2/4/1", 0xc6aeaca2c101044cull, 230656, 57628, 36864, 2048},
    {"vmpa 300x600x90 u2/4/2", 0x50b9a169800f64b1ull, 230656, 57660, 36864, 2048},
    {"vmpa 300x600x90 u2/4/4", 0x9e6f537495ba7958ull, 233728, 58428, 36864, 2048},
    {"vmpa 300x600x90 u2/4/8", 0x9aadc1e7070dcfcfull, 233728, 58428, 36864, 2048},
    {"vmpa 300x600x90 u2/8/1", 0x636727080827f36cull, 230656, 57660, 36864, 6144},
    {"vmpa 300x600x90 u2/8/2", 0x6b53a0387d512b02ull, 230656, 57660, 36864, 6144},
    {"vmpa 300x600x90 u2/8/4", 0x9c3834b11a6331d3ull, 233728, 58428, 36864, 6144},
    {"vmpa 300x600x90 u2/8/8", 0x40b3e675d7311064ull, 233728, 58428, 36864, 6144},
    {"vrmpy 70x45x11 u1/1/1", 0x1b064b58aa4800efull, 4736, 588, 1152, 0},
    {"vrmpy 70x45x11 u1/1/2", 0xbdd71ea71d32368full, 4736, 604, 1152, 0},
    {"vrmpy 70x45x11 u1/1/4", 0x34e3f8c3d2a8d4ddull, 4736, 636, 1152, 0},
    {"vrmpy 70x45x11 u1/1/8", 0x8bccc4f6f3267c28ull, 6272, 828, 1152, 0},
    {"vrmpy 70x45x11 u1/2/1", 0x7849a2b01878806dull, 4736, 796, 1536, 0},
    {"vrmpy 70x45x11 u1/2/2", 0xe9e5f045293d74d2ull, 4736, 828, 1536, 0},
    {"vrmpy 70x45x11 u1/2/4", 0x5bc94921339114edull, 4736, 828, 1536, 0},
    {"vrmpy 70x45x11 u1/2/8", 0x4b42d2729db7567aull, 6272, 1084, 1536, 0},
    {"vrmpy 70x45x11 u1/4/1", 0x1e1f973d2a803dbaull, 4736, 828, 1536, 0},
    {"vrmpy 70x45x11 u1/4/2", 0xe0b93dec373cccf0ull, 4736, 828, 1536, 0},
    {"vrmpy 70x45x11 u1/4/4", 0x960263102749b33bull, 4736, 828, 1536, 0},
    {"vrmpy 70x45x11 u1/4/8", 0x646401301036765aull, 6272, 1084, 1536, 0},
    {"vrmpy 70x45x11 u1/8/1", 0x512fece7c3e32b2cull, 4736, 1596, 3072, 2048},
    {"vrmpy 70x45x11 u1/8/2", 0x7f6b98bed9968444ull, 4736, 1596, 3072, 2048},
    {"vrmpy 70x45x11 u1/8/4", 0x61ec27fabbc04943ull, 4736, 1596, 3072, 2048},
    {"vrmpy 70x45x11 u1/8/8", 0xbdf7f374b873b7baull, 6272, 2108, 3072, 2048},
    {"vrmpy 70x45x11 u2/1/1", 0x696c16a9b0e876d5ull, 6272, 588, 1536, 0},
    {"vrmpy 70x45x11 u2/1/2", 0xdf2b8545d089f54bull, 6272, 604, 1536, 0},
    {"vrmpy 70x45x11 u2/1/4", 0x1d4a4730291a9c0dull, 6272, 636, 1536, 0},
    {"vrmpy 70x45x11 u2/1/8", 0x24362d3752103d62ull, 8320, 828, 1536, 0},
    {"vrmpy 70x45x11 u2/2/1", 0x566f1e97ecf71dd9ull, 6272, 796, 2048, 0},
    {"vrmpy 70x45x11 u2/2/2", 0xef817820477e49f0ull, 6272, 828, 2048, 0},
    {"vrmpy 70x45x11 u2/2/4", 0xbab88743ecf8de79ull, 6272, 828, 2048, 0},
    {"vrmpy 70x45x11 u2/2/8", 0x34a54a5e7cd0fa48ull, 8320, 1084, 2048, 0},
    {"vrmpy 70x45x11 u2/4/1", 0xabd29a9ab69d414cull, 6272, 828, 2048, 2048},
    {"vrmpy 70x45x11 u2/4/2", 0x8ce2c65492290962ull, 6272, 828, 2048, 2048},
    {"vrmpy 70x45x11 u2/4/4", 0x70355d3b80a5c9c9ull, 6272, 828, 2048, 2048},
    {"vrmpy 70x45x11 u2/4/8", 0x6dfe669500d01dfcull, 8320, 1084, 2048, 2048},
    {"vrmpy 70x45x11 u2/8/1", 0xf7c6076ddf5a1994ull, 6272, 1596, 4096, 6144},
    {"vrmpy 70x45x11 u2/8/2", 0x2e2b90a346407c0cull, 6272, 1596, 4096, 6144},
    {"vrmpy 70x45x11 u2/8/4", 0x26e982e2faa1168full, 6272, 1596, 4096, 6144},
    {"vrmpy 70x45x11 u2/8/8", 0xad296e0c0508bd0eull, 8320, 2108, 4096, 6144},
    {"vrmpy 300x600x90 u1/1/1", 0x22ff515f145cb265ull, 192128, 55212, 29440, 0},
    {"vrmpy 300x600x90 u1/1/2", 0xd8218f527ecc4404ull, 192128, 55228, 29440, 0},
    {"vrmpy 300x600x90 u1/1/4", 0x83d114a984fe1a9eull, 194688, 55996, 29440, 0},
    {"vrmpy 300x600x90 u1/1/8", 0xb910f2f3c6ff1f2dull, 194688, 55996, 29440, 0},
    {"vrmpy 300x600x90 u1/2/1", 0xcdf68b098af71112ull, 192128, 57628, 30720, 0},
    {"vrmpy 300x600x90 u1/2/2", 0xc91bf8f87c35a1eull, 192128, 57660, 30720, 0},
    {"vrmpy 300x600x90 u1/2/4", 0xb0167e9606c05e6ull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u1/2/8", 0x6cf7a0f446e66477ull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u1/4/1", 0x27a5a94150884f33ull, 192128, 57660, 30720, 0},
    {"vrmpy 300x600x90 u1/4/2", 0xdd32f9541b1eb748ull, 192128, 57660, 30720, 0},
    {"vrmpy 300x600x90 u1/4/4", 0xb69c1c860a19144aull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u1/4/8", 0xdf68df3cbd89a9d1ull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u1/8/1", 0xd8049afbd1e30976ull, 192128, 57660, 30720, 2048},
    {"vrmpy 300x600x90 u1/8/2", 0xbe9e504a085cb2e1ull, 192128, 57660, 30720, 2048},
    {"vrmpy 300x600x90 u1/8/4", 0x20dc6c447f5e6d8bull, 194688, 58428, 30720, 2048},
    {"vrmpy 300x600x90 u1/8/8", 0x5ba25f18328f394aull, 194688, 58428, 30720, 2048},
    {"vrmpy 300x600x90 u2/1/1", 0xa7c2b61bfc208d4eull, 192128, 55212, 29440, 0},
    {"vrmpy 300x600x90 u2/1/2", 0x92e80a16f5864e86ull, 192128, 55228, 29440, 0},
    {"vrmpy 300x600x90 u2/1/4", 0x8f3001ad9d903840ull, 194688, 55996, 29440, 0},
    {"vrmpy 300x600x90 u2/1/8", 0x1c9adf3e7fd713c3ull, 194688, 55996, 29440, 0},
    {"vrmpy 300x600x90 u2/2/1", 0xa38d3a9b973168ffull, 192128, 57628, 30720, 0},
    {"vrmpy 300x600x90 u2/2/2", 0x9e455c7a2136a5b4ull, 192128, 57660, 30720, 0},
    {"vrmpy 300x600x90 u2/2/4", 0x3ddae9d4bca6f1eaull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u2/2/8", 0x235d05108ccd8e13ull, 194688, 58428, 30720, 0},
    {"vrmpy 300x600x90 u2/4/1", 0xc2e9948c1f916060ull, 192128, 57660, 30720, 2048},
    {"vrmpy 300x600x90 u2/4/2", 0x1ace821af8a3ac18ull, 192128, 57660, 30720, 2048},
    {"vrmpy 300x600x90 u2/4/4", 0x616c7285ef7ca22eull, 194688, 58428, 30720, 2048},
    {"vrmpy 300x600x90 u2/4/8", 0x911743516d5c4817ull, 194688, 58428, 30720, 2048},
    {"vrmpy 300x600x90 u2/8/1", 0xcf6e287c22b556e3ull, 192128, 57660, 30720, 6144},
    {"vrmpy 300x600x90 u2/8/2", 0xa69a4a70b35b3f6dull, 192128, 57660, 30720, 6144},
    {"vrmpy 300x600x90 u2/8/4", 0x203ed76eaea5735bull, 194688, 58428, 30720, 6144},
    {"vrmpy 300x600x90 u2/8/8", 0x7cb347c893403488ull, 194688, 58428, 30720, 6144},
    {"vmpy 200x77x40 u3/12/3", 0x1a4e686da46eaf1bull, 30080, 15020, 18432, 7168},
    {"vmpy 130x9x17 u1/9/5", 0x380ae8c896d0acd4ull, 2688, 776, 4608, 256},
    {"vmpa 150x50x30 u2/6/3", 0x5f094bcdf36bf08full, 15616, 2204, 9216, 4096},
    {"vrmpy 100x100x100 u3/6/5", 0xc66aba4dfaf56ff7ull, 19328, 12056, 23040, 7168},
    {"vrmpy 33x13x5 u1/5/7", 0xc3678635fa59d912ull, 1920, 612, 1280, 512},
    {"add unroll 1", 0xe9da69a12dcfadadull, 1024, 1024, 1024, 0},
    {"add unroll 3", 0x7d0a5696564d0e06ull, 1152, 1152, 1152, 0},
    {"add unroll 8", 0x35252671dcc91db5ull, 1024, 1024, 1024, 0},
    {"maxpool unroll 1", 0xace4809cd3255fd5ull, 1024, 0, 512, 0},
    {"maxpool unroll 3", 0xf99ebcac2291a394ull, 1536, 0, 768, 0},
    {"maxpool unroll 8", 0x83383ad84a9b4b73ull, 2048, 0, 1024, 0},
    {"avgpool unroll 1", 0x7dd0b0c7f2051a13ull, 1024, 0, 512, 0},
    {"avgpool unroll 3", 0xfaa3c604282e052eull, 1536, 0, 768, 0},
    {"avgpool unroll 8", 0x79e6c0259daac77bull, 2048, 0, 1024, 0},
    {"clamp unroll 1", 0x9980a5957b086182ull, 1024, 0, 1024, 0},
    {"clamp unroll 3", 0x43cb368b1f085615ull, 1152, 0, 1152, 0},
    {"clamp unroll 8", 0xc16007c4d25059c4ull, 1024, 0, 1024, 0},
    {"requant unroll 1", 0xc6b3ddede531cd79ull, 1024, 0, 1024, 0},
    {"requant unroll 3", 0xca8ff8c925a21330ull, 1152, 0, 1152, 0},
    {"requant unroll 8", 0x8f46504db59d40fbull, 1024, 0, 1024, 0},
    {"div unroll 1", 0xc96ff59e6c068124ull, 1000, 0, 1000, 0},
    {"div unroll 3", 0xb83f9cefc88ac710ull, 1002, 0, 1002, 0},
    {"div unroll 8", 0xece469d5a3401566ull, 1000, 0, 1000, 0},
    {"div_lut unroll 1", 0xa574cf1f65a7a801ull, 1000, 256, 1000, 0},
    {"div_lut unroll 3", 0x4ef838d180606a5ull, 1002, 256, 1002, 0},
    {"div_lut unroll 8", 0x3d243cda7a156045ull, 1000, 256, 1000, 0},
    {"lut unroll 1", 0xaad0fa88ceb175f0ull, 1024, 256, 1024, 0},
    {"lut unroll 3", 0x12b85b986832ffd5ull, 1152, 256, 1152, 0},
    {"lut unroll 8", 0x5e63adaf72b15356ull, 1024, 256, 1024, 0},
    {"depthwise s1 3x3 on 14x14", 0x697c6f138dadf781ull, 3456, 36, 768, 0},
    {"depthwise s1 3x3 on 40x300", 0xdf4cfa67f0f1d096ull, 96768, 72, 61440, 0},
    {"depthwise s1 3x3 on 60x1", 0x697c6f138dadf781ull, 3456, 36, 768, 0},
    {"depthwise s1 5x5 on 14x14", 0x5294fb7b8027e6a1ull, 5760, 120, 768, 0},
    {"depthwise s1 5x5 on 40x300", 0xb6ef9279736fc96aull, 101376, 240, 61440, 0},
    {"depthwise s1 5x5 on 60x1", 0xf39f1c01e2603f9full, 6912, 120, 1536, 0},
    {"depthwise s1 7x7 on 14x14", 0x540bd2fbf813032cull, 9216, 252, 1536, 0},
    {"depthwise s1 7x7 on 40x300", 0xfcacc07be037e05cull, 105984, 504, 61440, 0},
    {"depthwise s1 7x7 on 60x1", 0x540bd2fbf813032cull, 9216, 252, 1536, 0},
    {"depthwise s1 15x1 on 14x14", 0xaf147febf036a0faull, 17280, 180, 768, 0},
    {"depthwise s1 15x1 on 40x300", 0xff77e9a06bce8927ull, 124416, 360, 61440, 0},
    {"depthwise s1 15x1 on 60x1", 0x77b4b43a93d2a63aull, 1152, 60, 768, 0},
    {"depthwise s2 3x3 on 14x14", 0x553aa41fe9c20956ull, 3456, 36, 384, 0},
    {"depthwise s2 3x3 on 40x300", 0xd7e6a506b966264dull, 94464, 72, 15360, 0},
    {"depthwise s2 3x3 on 60x1", 0x553aa41fe9c20956ull, 3456, 36, 384, 0},
    {"depthwise s2 5x5 on 14x14", 0xc8d28808adaa7fe1ull, 5760, 120, 384, 0},
    {"depthwise s2 5x5 on 40x300", 0xc292607156e4271eull, 99072, 240, 15360, 0},
    {"depthwise s2 5x5 on 60x1", 0xc8d28808adaa7fe1ull, 5760, 120, 384, 0},
    {"depthwise s2 7x7 on 14x14", 0x5ac5920ee47cc436ull, 8064, 252, 384, 0},
    {"depthwise s2 7x7 on 40x300", 0xa806c9888a0e133cull, 103680, 504, 15360, 0},
    {"depthwise s2 7x7 on 60x1", 0x5ac5920ee47cc436ull, 8064, 252, 384, 0},
    {"depthwise s2 15x1 on 14x14", 0x74dff89e5fe8eebbull, 17280, 180, 384, 0},
    {"depthwise s2 15x1 on 40x300", 0x1c8e1cdf105881f6ull, 122112, 360, 15360, 0},
    {"depthwise s2 15x1 on 60x1", 0x1b1e1715cb20dad1ull, 1152, 60, 384, 0},
    {"depthwise s2 3x3 on 28x28 unroll 2", 0xf81165066b1f9426ull, 3840, 24, 512, 0},
};
// clang-format on

ProgramRow
rowOf(std::string name, const dsp::Program &prog,
      const KernelBuffers &buffers)
{
    common::FnvPair fnv;
    dsp::hashProgramCode(prog, fnv);
    fnv.sequence(prog.noaliasExtents);
    return {std::move(name),      fnv.first(),
            buffers.inputBytes,   buffers.weightBytes,
            buffers.outputBytes,  buffers.scratchBytes};
}

template <typename Kernel>
ProgramRow
rowOf(std::string name, const Kernel &kernel)
{
    return rowOf(std::move(name), kernel.program(), kernel.buffers());
}

std::string
matmulName(MatMulScheme scheme, const MatMulShape &shape,
           const UnrollChoice &choice)
{
    std::ostringstream out;
    out << schemeName(scheme) << " " << shape.m << "x" << shape.k << "x"
        << shape.n << " u" << choice.outer << "/" << choice.cols << "/"
        << choice.k;
    return out.str();
}

std::vector<ProgramRow>
generatedRows()
{
    std::vector<ProgramRow> rows;
    auto matmul = [&](MatMulScheme scheme, const MatMulShape &shape,
                      const UnrollChoice &choice) {
        rows.push_back(rowOf(
            matmulName(scheme, shape, choice),
            MatMulKernel(shape, withUnroll({.scheme = scheme}, choice))));
    };
    const MatMulScheme schemes[] = {MatMulScheme::Vmpy, MatMulScheme::Vmpa,
                                    MatMulScheme::Vrmpy};
    for (const MatMulScheme scheme : schemes)
        for (const MatMulShape &shape :
             {MatMulShape{70, 45, 11}, MatMulShape{300, 600, 90}})
            for (const UnrollChoice &choice : unrollCandidates())
                matmul(scheme, shape, choice);
    // Past the no-spill limit, odd k unrolls, three outer panels.
    matmul(MatMulScheme::Vmpy, {200, 77, 40}, {3, 12, 3});
    matmul(MatMulScheme::Vmpy, {130, 9, 17}, {1, 9, 5});
    matmul(MatMulScheme::Vmpa, {150, 50, 30}, {2, 6, 3});
    matmul(MatMulScheme::Vrmpy, {100, 100, 100}, {3, 6, 5});
    matmul(MatMulScheme::Vrmpy, {33, 13, 5}, {1, 5, 7});

    const EwOp ops[] = {EwOp::Add,     EwOp::MaxPool, EwOp::AvgPool,
                        EwOp::Clamp,   EwOp::Requant, EwOp::Div,
                        EwOp::DivLut,  EwOp::Lut};
    for (const EwOp op : ops)
        for (const int unroll : {1, 3, 8}) {
            EwConfig config;
            config.op = op;
            config.length = 1000;
            config.unroll = unroll;
            config.clampLo = 12;
            config.clampHi = 200;
            config.denominator = 5;
            rows.push_back(rowOf(std::string(ewOpName(op)) + " unroll " +
                                     std::to_string(unroll),
                                 ElementwiseKernel(config)));
        }

    struct Filter
    {
        int64_t kH, kW;
    };
    struct Plane
    {
        int64_t inH, inW;
    };
    for (const int64_t stride : {1, 2})
        for (const Filter f : {Filter{3, 3}, Filter{5, 5}, Filter{7, 7},
                               Filter{15, 1}})
            for (const Plane p : {Plane{14, 14}, Plane{40, 300},
                                  Plane{60, 1}}) {
                const DepthwiseConfig config{.channels = 3,
                                             .inH = p.inH,
                                             .inW = p.inW,
                                             .kH = f.kH,
                                             .kW = f.kW,
                                             .stride = stride,
                                             .padH = f.kH / 2,
                                             .padW = f.kW / 2};
                std::ostringstream name;
                name << "depthwise s" << stride << " " << f.kH << "x"
                     << f.kW << " on " << p.inH << "x" << p.inW;
                rows.push_back(rowOf(name.str(), DepthwiseKernel(config)));
            }
    // Unrolled stride-2 rows.
    rows.push_back(
        rowOf("depthwise s2 3x3 on 28x28 unroll 2",
              DepthwiseKernel({.channels = 2, .inH = 28, .inW = 28,
                               .stride = 2, .padH = 1, .padW = 1,
                               .unrollRows = 2})));
    return rows;
}

std::string
formatTable(const std::vector<ProgramRow> &rows)
{
    std::ostringstream out;
    out << "const std::vector<ProgramRow> kRecorded = {\n";
    for (const ProgramRow &row : rows)
        out << "    {\"" << row.name << "\", 0x" << std::hex << row.hash
            << std::dec << "ull, " << row.inputBytes << ", "
            << row.weightBytes << ", " << row.outputBytes << ", "
            << row.scratchBytes << "},\n";
    out << "};\n";
    return out.str();
}

TEST(KernelProgramsTest, GeneratorsMatchRecordedHashes)
{
    const std::vector<ProgramRow> actual = generatedRows();
    EXPECT_TRUE(actual == kRecorded)
        << "generated programs differ from the recorded table; if the "
           "change is deliberate, replace kRecorded with:\n"
        << formatTable(actual);
}

} // namespace
} // namespace gcd2::kernels
