/* Two monotone windows over one bound array, with different signatures,
   both writing the same destination. */
void two_monotone_windows(int n, int nnz, int *row_ptr, double *w, double *msg) {
#pragma acc localaccess(row_ptr) stride(1) right(2)
#pragma acc parallel loop copyin(row_ptr[0:n+2], w[0:n]) copy(msg[0:nnz])
  for (int i = 0; i < n; i++) {
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) { msg[k] = w[i]; }
    for (int k = row_ptr[i + 1]; k < row_ptr[i + 2]; k = k + 1) { msg[k] = 2.0 * w[i]; }
  }
}
