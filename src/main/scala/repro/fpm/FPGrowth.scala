package repro.fpm

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** Single-tree FP-Growth (Han, Pei, Yin — SIGMOD 2000) over an in-memory
  * transaction collection: rank the frequent items, encode each
  * transaction as sorted `Int` ranks, build one [[FPTree]] and extract.
  * The pipeline runs it once per cuisine, inside one Spark task each.
  *
  * Validated in tests against MLlib's `ml.fpm.FPGrowth`, [[Apriori]] and
  * [[BruteForce]].
  */
object FPGrowth {

  /** minCount such that freq/total >= minSupport  <=>  freq >= minCount. */
  def minCountFor(minSupport: Double, total: Long): Long =
    math.ceil(minSupport * total).toLong

  /** Mine frequent itemsets from string transactions, e.g. one cuisine: at
    * most 16,582 transactions (Italian at SF=1).
    *
    * @param transactions one item sequence per transaction (duplicates
    *                     within a transaction are ignored)
    * @param minSupport   relative support threshold in (0, 1]
    */
  def mine(transactions: Seq[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")
    val total = transactions.size.toLong
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)
    val counts = mutable.Map.empty[String, Long].withDefaultValue(0L)
    transactions.foreach(_.distinct.foreach(i => counts(i) += 1))
    // Frequent items, most frequent first (ties by name): rank i is items(i).
    val items = counts.iterator.filter(_._2 >= minCount).toArray
      .sortBy { case (i, c) => (-c, i) }.map(_._1)
    val ranks = items.zipWithIndex.toMap
    val tree = new FPTree[Int]
    transactions.foreach { t =>
      val r = t.iterator.flatMap(ranks.get).toArray.distinct
      java.util.Arrays.sort(r)
      tree.add(ArraySeq.unsafeWrapArray(r))
    }
    tree.extract(minCount).map { case (rs, cnt) =>
      FreqItemset(rs.map(items).sorted, cnt, cnt.toDouble / total)
    }.toSeq
  }
}
