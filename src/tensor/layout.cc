#include "tensor/layout.h"

#include "common/logging.h"
#include "common/round.h"
#include "dsp/isa.h"

namespace gcd2::tensor {

using common::roundUp;

const char *
layoutName(Layout layout)
{
    switch (layout) {
      case Layout::RowMajor:
        return "row_major";
      case Layout::OneColumn:
        return "1-column";
      case Layout::TwoColumn:
        return "2-column";
      case Layout::FourColumn:
        return "4-column";
    }
    return "?";
}

int
layoutPanelRows(Layout layout)
{
    switch (layout) {
      case Layout::RowMajor:
        return 1;
      case Layout::OneColumn:
        return 128;
      case Layout::TwoColumn:
        return 64;
      case Layout::FourColumn:
        return 32;
    }
    return 1;
}

int
layoutColGroup(Layout layout)
{
    switch (layout) {
      case Layout::RowMajor:
        return 1;
      case Layout::OneColumn:
        return 1;
      case Layout::TwoColumn:
        return 2;
      case Layout::FourColumn:
        return 4;
    }
    return 1;
}

int64_t
paddedRows(Layout layout, int64_t rows)
{
    return roundUp(rows, layoutPanelRows(layout));
}

int64_t
paddedCols(Layout layout, int64_t cols)
{
    return roundUp(cols, layoutColGroup(layout));
}

int64_t
packedByteSize(Layout layout, int64_t rows, int64_t cols)
{
    return paddedRows(layout, rows) * paddedCols(layout, cols);
}

int64_t
layoutOffset(Layout layout, int64_t rows, int64_t cols, int64_t r, int64_t c)
{
    GCD2_ASSERT(r >= 0 && r < rows && c >= 0 && c < cols,
                "element (" << r << ", " << c << ") outside " << rows << "x"
                            << cols);
    if (layout == Layout::RowMajor)
        return r * cols + c;

    const int64_t panel = layoutPanelRows(layout);
    const int64_t group = layoutColGroup(layout);
    const int64_t colsP = paddedCols(layout, cols);
    const int64_t panelBase = (r / panel) * panel * colsP;
    const int64_t groupBase = (c / group) * panel * group;
    return panelBase + groupBase + (r % panel) * group + (c % group);
}

void
packMatrix(const int8_t *rowMajor, int64_t rows, int64_t cols, Layout layout,
           std::vector<int8_t> &out)
{
    out.assign(static_cast<size_t>(packedByteSize(layout, rows, cols)), 0);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            out[static_cast<size_t>(layoutOffset(layout, rows, cols, r, c))] =
                rowMajor[r * cols + c];
}

void
unpackMatrix(const int8_t *packed, int64_t rows, int64_t cols, Layout layout,
             std::vector<int8_t> &rowMajorOut)
{
    rowMajorOut.assign(static_cast<size_t>(rows * cols), 0);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            rowMajorOut[static_cast<size_t>(r * cols + c)] = packed
                [static_cast<size_t>(layoutOffset(layout, rows, cols, r, c))];
}

void
transformMatrix(const int8_t *packed, int64_t rows, int64_t cols, Layout from,
                Layout to, std::vector<int8_t> &out)
{
    std::vector<int8_t> rowMajor;
    unpackMatrix(packed, rows, cols, from, rowMajor);
    packMatrix(rowMajor.data(), rows, cols, to, out);
}

uint64_t
layoutTransformCycles(Layout from, Layout to, int64_t rows, int64_t cols)
{
    if (from == to)
        return 0;
    // A panel-layout change is a strided gather/scatter: the bytes of one
    // output vector come from dozens of distinct source lines, so the
    // repack streams far below the sequential-copy rate (single permute
    // unit, single store port, poor locality). Effective throughput is on
    // the order of 3.5 bytes per cycle -- ~36 cycles per 128-byte vector.
    const int64_t inBytes = packedByteSize(from, rows, cols);
    const int64_t outBytes = packedByteSize(to, rows, cols);
    const int64_t vectors =
        common::ceilDiv(inBytes + outBytes, dsp::kVectorBytes);
    return static_cast<uint64_t>(36 * vectors + 16);
}

} // namespace gcd2::tensor
