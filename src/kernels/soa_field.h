#ifndef CENN_KERNELS_SOA_FIELD_H_
#define CENN_KERNELS_SOA_FIELD_H_

/**
 * @file
 * Structure-of-arrays storage for multilayer CeNN fields.
 *
 * A SoaField views all layers of one field (state, input, output) in
 * one contiguous span of storage its owner allocates: layer-major
 * planes of row-major rows, with each row padded to a 64-byte multiple
 * so consecutive rows start cache-line aligned and the stepping
 * kernels can walk a row with unit stride. Padding lanes are never read by the kernels
 * (column mapping stays inside [0, cols)), so their contents are
 * irrelevant.
 */

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/num_traits.h"
#include "util/logging.h"

namespace cenn {

/** Layer-major, row-padded storage of one field over all layers. */
template <typename T>
class SoaField
{
  public:
    /** Elements per 64-byte cache line (>= 1). */
    static constexpr std::size_t kLineElems =
        64 / sizeof(T) > 0 ? 64 / sizeof(T) : 1;

    /** Empty field. */
    SoaField() = default;

    /** Elements a layers x rows x cols field spans, padding included. */
    static std::size_t
    Elements(int layers, std::size_t rows, std::size_t cols)
    {
        return static_cast<std::size_t>(layers) * rows * PaddedCols(cols);
    }

    /**
     * layers x rows x cols field over `data`, which holds Elements()
     * values and outlives the field (the owner keeps it alive).
     */
    SoaField(int layers, std::size_t rows, std::size_t cols, T* data)
        : layers_(layers),
          rows_(rows),
          cols_(cols),
          stride_(PaddedCols(cols)),
          plane_(rows * stride_),
          data_(data)
    {
        CENN_ASSERT(layers >= 0, "SoaField: negative layer count");
    }

    int Layers() const { return layers_; }
    std::size_t Rows() const { return rows_; }
    std::size_t Cols() const { return cols_; }

    /** Elements between consecutive rows (>= Cols()). */
    std::size_t Stride() const { return stride_; }

    /** First element of row `r` of layer `layer`. */
    T*
    Row(int layer, std::size_t r)
    {
        return data_ + static_cast<std::size_t>(layer) * plane_ +
               r * stride_;
    }
    const T*
    Row(int layer, std::size_t r) const
    {
        return data_ + static_cast<std::size_t>(layer) * plane_ +
               r * stride_;
    }

    /** Element (r, c) of a layer (unchecked; hot path). */
    T& At(int layer, std::size_t r, std::size_t c)
    {
        return Row(layer, r)[c];
    }
    const T& At(int layer, std::size_t r, std::size_t c) const
    {
        return Row(layer, r)[c];
    }

    /** Swaps storage with another field of identical geometry. */
    void
    Swap(SoaField& other)
    {
        CENN_ASSERT(layers_ == other.layers_ && rows_ == other.rows_ &&
                        cols_ == other.cols_,
                    "SoaField::Swap: geometry mismatch");
        std::swap(data_, other.data_);
    }

    /** One layer's cells as doubles, row-major, padding stripped. */
    std::vector<double>
    PlaneToDoubles(int layer) const
    {
        std::vector<double> out;
        out.reserve(rows_ * cols_);
        for (std::size_t r = 0; r < rows_; ++r) {
          const T* row = Row(layer, r);
          for (std::size_t c = 0; c < cols_; ++c) {
            out.push_back(NumTraits<T>::ToDouble(row[c]));
          }
        }
        return out;
    }

    /** Fills one layer from a row-major double field (size rows*cols). */
    void
    PlaneFromDoubles(int layer, std::span<const double> values)
    {
        CENN_ASSERT(values.size() == rows_ * cols_,
                    "SoaField::PlaneFromDoubles: size mismatch (", values.size(),
                    " vs ", rows_ * cols_, ")");
        for (std::size_t r = 0; r < rows_; ++r) {
          T* row = Row(layer, r);
          for (std::size_t c = 0; c < cols_; ++c) {
            row[c] = NumTraits<T>::FromDouble(values[r * cols_ + c]);
          }
        }
    }

  private:
    /** Columns rounded up to whole cache lines. */
    static std::size_t
    PaddedCols(std::size_t cols)
    {
        return (cols + kLineElems - 1) / kLineElems * kLineElems;
    }

    int layers_ = 0;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
    std::size_t plane_ = 0;
    T* data_ = nullptr;
};

}  // namespace cenn

#endif  // CENN_KERNELS_SOA_FIELD_H_
